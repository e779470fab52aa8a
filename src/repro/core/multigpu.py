"""Multi-device GraphReduce scheduler (the paper's future work, Section 8).

Scales the single-device engine to N simulated accelerators on one
host. Shard ownership comes from the partitioned-ownership
abstraction (:mod:`repro.core.ownership`): each device owns a
contiguous block of shards for the whole run, so edge data never
migrates and each device's vertex intervals form one contiguous range.

The resident vertex arrays are logically replicated, but the
iteration-end exchange is *sparse*: each producer device publishes only
the vertices **it owns that changed this iteration** (value + index),
never the full array, and never other devices' changes. Two frontier
policies govern what rides along:

* ``replicated`` -- each producer ships the full frontier bitmap with
  its changed values, keeping complete bitmaps on every device (the
  classic multi-GPU GAS design).
* ``partitioned`` -- a producer ships consumer ``e`` only the changed
  vertices ``e`` actually reads across the ownership boundary
  (``boundary_matrix[(e, d)]``), plus that pair's boundary bits.

Transfer routing follows the node's switch topology
(:class:`repro.sim.specs.LinkSpec` via
:class:`repro.sim.transfer.InterconnectModel`): same-switch pairs use a
single peer-DMA link crossing; cross-switch pairs stage through host
DRAM as a D2H + H2D pair. Both routes are enqueued on the simulated
streams, so the scaling curve reflects the topology.

:class:`MultiGPUGraphReduce` builds the N-device model and runs it
through :meth:`GraphReduce._iterate`, the single-device engine's loop,
so the loop-control rule (``always_active``, reseed, ``converged``,
``end_iteration``) and ``direction`` act on N devices as on one.

Semantics are exact: one shared :class:`ComputeEngine` executes every
shard, so vertex values, iteration counts, and convergence are
bit-identical to single-device GraphReduce regardless of device count
or frontier policy -- only the performance plane (sim time, transfer
bytes) changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import GASProgram
from repro.core.compute import ComputeEngine
from repro.core.frontier import FrontierManager
from repro.core.fusion import build_plan
from repro.core.movement import DataMovementEngine, MovementConfig
from repro.core.ownership import (
    OwnershipMap,
    boundary_matrix,
    check_frontier_policy,
    owned_vertex_mask,
)
from repro.core.partition import IDX_BYTES, PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions, RuntimeContext
from repro.graph.edgelist import EdgeList
from repro.sim.device import GPUDevice
from repro.sim.engine import Simulator
from repro.sim.specs import MachineSpec, default_machine
from repro.sim.trace import TraceRecorder
from repro.sim.transfer import InterconnectModel


@dataclass
class DeviceReport:
    """Per-device accounting for one multi-device run."""

    device: int
    owned_shards: int
    owned_vertices: int
    #: replication bytes this device produced (sent to peers/host)
    bytes_sent: int = 0
    #: replication bytes this device ingested
    bytes_received: int = 0


@dataclass
class MultiGPUResult:
    vertex_values: np.ndarray
    iterations: int
    converged: bool
    sim_time: float
    num_devices: int
    num_partitions: int
    frontier_policy: str
    #: summed transfer time across all devices
    memcpy_time: float
    #: total vertex-replication traffic, bytes (sum over ordered pairs)
    replication_bytes: int
    #: replication bytes that moved over peer DMA (same-switch pairs)
    p2p_bytes: int
    #: replication bytes that staged through host DRAM (cross-switch)
    host_staged_bytes: int
    per_device: list = field(default_factory=list)


class _DeviceGroup:
    """N-device model for :meth:`GraphReduce._iterate`.

    A phase splits its selected shards by owner, issues each device's
    share without a barrier, then synchronizes all devices; an iteration
    ends with the sparse exchange, routed per ordered device pair.
    """

    def __init__(self, machine, opts, sharded, num_devices, frontier_policy, program):
        self.sim = Simulator()
        self.devices = [
            GPUDevice(self.sim, machine.device, TraceRecorder())
            for _ in range(num_devices)
        ]
        self.movements = [
            DataMovementEngine(
                dev,
                sharded,
                MovementConfig(async_streams=opts.async_streams, spray=opts.spray),
                program.needs_weights,
                program.edge_dtype is not None,
            )
            for dev in self.devices
        ]
        resident = GraphReduce._resident_buffers(program, sharded.num_vertices)
        for movement in self.movements:
            movement.upload_resident(resident)  # replicated vertex arrays
            movement.reserve_stage_slots()

        ownership = OwnershipMap.contiguous(sharded.num_partitions, num_devices)
        ownership.validate()
        self.owner = ownership.owner_of
        self.owned_masks = [
            owned_vertex_mask(sharded, ownership, d) for d in range(num_devices)
        ]
        self.pair_vids = (
            boundary_matrix(sharded, ownership)
            if frontier_policy == "partitioned"
            else None
        )
        self.interconnect = InterconnectModel(machine.device, machine.link)
        self.reports = [
            DeviceReport(
                device=d,
                owned_shards=len(ownership.shards_of(d)),
                owned_vertices=int(self.owned_masks[d].sum()),
            )
            for d in range(num_devices)
        ]
        self.vdt = np.dtype(program.vertex_dtype).itemsize
        self.full_bitmap_bytes = sharded.num_vertices // 8 + 1
        self.replication_bytes = self.p2p_bytes = self.host_staged_bytes = 0

    def run_phase(self, group, shards, skipped, run_shard) -> None:
        per_device: list[list] = [[] for _ in self.devices]
        for shard in shards:
            per_device[self.owner[shard.index]].append(shard)
        for d, dev_shards in enumerate(per_device):
            self.movements[d].run_phase(
                group,
                dev_shards,
                skipped if d == 0 else 0,
                run_shard,
                barrier=False,  # devices proceed concurrently
            )
        for dev in self.devices:
            dev.synchronize()  # BSP barrier across all devices

    def end_iteration(self, frontier: FrontierManager) -> None:
        # Sparse replication: each producer device publishes only the
        # vertices it owns that changed this iteration. Routing and
        # payload per ordered (producer, consumer) pair follow the
        # switch topology and the frontier policy.
        changed = frontier.changed
        n = len(self.devices)
        for d in range(n):
            changed_owned = int(np.count_nonzero(changed[self.owned_masks[d]]))
            for e in range(n):
                if e == d:
                    continue
                if self.pair_vids is not None:
                    vids = self.pair_vids.get((e, d))
                    if vids is None:
                        continue  # no edge crosses this pair
                    k = int(np.count_nonzero(changed[vids]))
                    payload = k * (self.vdt + IDX_BYTES) + (len(vids) + 7) // 8
                else:
                    payload = (
                        changed_owned * (self.vdt + IDX_BYTES) + self.full_bitmap_bytes
                    )
                if self.interconnect.peer_capable(d, e):
                    # One link crossing: peer DMA from d straight
                    # into e's memory.
                    self.movements[d].streams[0].memcpy_d2h(
                        payload, label="replicate-peer"
                    )
                    self.p2p_bytes += payload
                else:
                    # Two crossings through host DRAM.
                    self.movements[d].streams[0].memcpy_d2h(
                        payload, label="replicate-out"
                    )
                    self.movements[e].streams[0].memcpy_h2d(
                        payload, label="replicate-in"
                    )
                    self.host_staged_bytes += payload
                self.replication_bytes += payload
                self.reports[d].bytes_sent += payload
                self.reports[e].bytes_received += payload
        for dev in self.devices:
            dev.synchronize()


class MultiGPUGraphReduce:
    """GraphReduce across ``num_devices`` simulated accelerators."""

    def __init__(
        self,
        edges: EdgeList,
        num_devices: int = 2,
        machine: MachineSpec | None = None,
        options: GraphReduceOptions | None = None,
        frontier_policy: str = "replicated",
    ):
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices!r}")
        self.edges = edges
        self._ctx = RuntimeContext(edges)
        self.num_devices = num_devices
        self.machine = machine or default_machine()
        self.options = options or GraphReduceOptions()
        self.frontier_policy = check_frontier_policy(frontier_policy)

    def run(self, program: GASProgram, max_iterations: int | None = None) -> MultiGPUResult:
        opts = self.options
        edges, ctx = GraphReduce._admit(program, opts, self.edges, self._ctx)
        p_per_device = opts.num_partitions or PartitionEngine.choose_num_partitions(
            edges,
            self.machine.device.memory_bytes,
            program.needs_weights,
            program.edge_dtype is not None,
            GraphReduce._resident_bytes(program, edges.num_vertices),
        )
        # At least one shard per device.
        p = max(p_per_device, self.num_devices)
        sharded = PartitionEngine().partition(edges, p, opts.partition_logic)
        model = _DeviceGroup(
            self.machine, opts, sharded, self.num_devices, self.frontier_policy, program
        )
        frontier = FrontierManager(
            sharded, np.asarray(program.init_frontier(ctx), dtype=bool)
        )
        compute = ComputeEngine(sharded, program, ctx, frontier)
        plan = build_plan(program, optimized=opts.fusion, fuse_gather=opts.fuse_gather)
        limit = max_iterations if max_iterations is not None else opts.max_iterations
        iterations, converged, _, _ = GraphReduce._iterate(
            opts, program, ctx, model, frontier, compute, plan, limit
        )
        return MultiGPUResult(
            vertex_values=compute.vertex_values,
            iterations=iterations,
            converged=converged,
            sim_time=model.sim.now,
            num_devices=self.num_devices,
            num_partitions=sharded.num_partitions,
            frontier_policy=self.frontier_policy,
            memcpy_time=sum(d.trace.memcpy_time() for d in model.devices),
            replication_bytes=model.replication_bytes,
            p2p_bytes=model.p2p_bytes,
            host_staged_bytes=model.host_staged_bytes,
            per_device=model.reports,
        )
