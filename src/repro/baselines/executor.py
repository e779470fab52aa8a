"""Shared host-side GAS executor.

Every baseline framework runs the same bulk-synchronous GAS semantics as
GraphReduce -- what differs between GraphChi, X-Stream, CuSha and
MapGraph is *how* the data is laid out and moved, i.e. the cost model.
This executor performs the semantic computation once per framework run
(on global CSC/CSR with frontier tracking, mirroring
:class:`repro.core.compute.ComputeEngine`) and records the per-iteration
activity census each framework's cost model consumes:

* how many vertices were active / changed,
* how many in-edges were gathered,
* how many out-edges carried updates,
* and how many of those updates stayed *partition-local* -- the quantity
  that makes X-Stream's shuffle cheap on meshes and expensive on
  Kronecker graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import GASProgram
from repro.core.runtime import RuntimeContext, run_iteration
from repro.graph.csr import build_csc, build_csr, dense_gather, ragged_gather
from repro.graph.edgelist import EdgeList


@dataclass(frozen=True)
class IterationProfile:
    """Activity census of one BSP iteration."""

    active_vertices: int
    #: in-edges actually gathered (0 for apply-only programs)
    active_in_edges: int
    #: in-edges *incident* to active vertices, regardless of phases --
    #: what a vertex-centric subgraph loader (GraphChi) must materialize
    incident_in_edges: int
    changed_vertices: int
    changed_out_edges: int
    local_out_edges: int  # changed out-edges with dst in src's partition
    touched_partitions: int  # partitions holding >= 1 active vertex
    num_partitions: int

    @property
    def touched_fraction(self) -> float:
        return self.touched_partitions / max(self.num_partitions, 1)


@dataclass
class ExecutionTrace:
    vertex_values: np.ndarray
    profiles: list[IterationProfile]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.profiles)


class _MaskFrontier:
    """Bool-mask frontier with the members :func:`run_iteration` drives."""

    def __init__(self, initial):
        self.current = np.array(initial, dtype=bool)
        self.next = np.zeros_like(self.current)
        self.changed = np.zeros_like(self.current)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.current))

    def activate_all(self) -> None:
        self.current[:] = True

    def set_current(self, mask) -> None:
        self.current[:] = mask

    def advance(self) -> None:
        self.current, self.next = self.next, self.current
        self.next[:] = False
        self.changed[:] = False


class HostGASExecutor:
    """Reference BSP execution with activity profiling.

    ``num_partitions`` only affects the locality census (frameworks with
    partitioned layouts pass their own partition count); results are
    partition-independent.
    """

    def __init__(self, edges: EdgeList, program: GASProgram, num_partitions: int = 16):
        program.validate()
        if program.needs_weights and edges.weights is None:
            edges = edges.with_unit_weights()
        self.edges = edges
        self.program = program
        self.ctx = RuntimeContext(edges)
        self.csc = build_csc(edges)
        self.csr = build_csr(edges)
        n = edges.num_vertices
        p = max(1, min(num_partitions, max(n, 1)))
        self.num_partitions = p
        bounds = np.linspace(0, n, p + 1).astype(np.int64)
        self._partition_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
        self._csc_w = None if edges.weights is None else edges.weights[self.csc.edge_ids]
        self._dense: dict[int, tuple] = {}  # id(CSC or CSR) -> dense_gather

    def run(self, max_iterations: int = 100_000) -> ExecutionTrace:
        prog, ctx = self.program, self.ctx
        values = np.asarray(prog.init_vertices(ctx)).astype(prog.vertex_dtype, copy=False)
        frontier = _MaskFrontier(prog.init_frontier(ctx))
        edge_state = prog.init_edge_state(ctx)
        profiles: list[IterationProfile] = []
        for iteration in range(max_iterations):
            profile = run_iteration(
                prog,
                ctx,
                iteration,
                frontier,
                values,
                lambda: self._iteration(frontier, values, edge_state, iteration),
            )
            if profile is None:
                return ExecutionTrace(values, profiles, True)
            profiles.append(profile)
        return ExecutionTrace(values, profiles, frontier.size == 0)

    def _edges_of(self, graph, rows):
        """``(edge positions, per-edge row, segment starts or None)`` of
        ``rows``' edges in ``graph`` (the CSC or CSR). With every vertex
        selected the answer is topology alone (the dense fast path of
        :mod:`repro.core.plans`): built once, positions span the arrays."""
        if len(rows) < self.edges.num_vertices:
            return (*ragged_gather(graph.indptr, rows), None)
        dense = self._dense.get(id(graph))
        if dense is None:
            dense = self._dense[id(graph)] = dense_gather(graph.indptr)
        return slice(None), dense[0], dense[1]

    def _iteration(self, frontier, values, edge_state, iteration) -> IterationProfile:
        """Gather, apply, scatter and activate over one frontier."""
        prog, ctx, csc, csr = self.program, self.ctx, self.csc, self.csr
        active = np.flatnonzero(frontier.current)
        # ---- gather -----------------------------------------------------
        gathered = np.full(len(active), prog.gather_identity, dtype=prog.gather_dtype)
        has = np.zeros(len(active), dtype=bool)
        gathered_edges = 0
        if prog.has_gather:
            pos, seg, starts = self._edges_of(csc, active)
            gathered_edges = len(seg)
            if gathered_edges:
                if starts is None:
                    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
                src = csc.indices[pos]
                w = None if self._csc_w is None else self._csc_w[pos]
                st = None if edge_state is None else edge_state[csc.edge_ids[pos]]
                contrib = prog.gather_map(ctx, src, seg.astype(src.dtype), values[src], w, st)
                red = prog.gather_reduce.reduceat(contrib, starts)
                # seg values are *global* vertex ids; map back to the
                # position inside `active` (active is sorted).
                slot = np.searchsorted(active, seg[starts])
                gathered[slot] = red.astype(prog.gather_dtype, copy=False)
                has[slot] = True
        # ---- apply ------------------------------------------------------
        new_vals, changed = prog.apply(ctx, active, values[active], gathered, has, iteration)
        changed = np.asarray(changed, dtype=bool)
        values[active] = np.asarray(new_vals).astype(prog.vertex_dtype, copy=False)
        changed_ids = active[changed]
        frontier.changed[changed_ids] = True
        # ---- scatter + frontier activate --------------------------------
        pos, seg, _ = self._edges_of(csr, changed_ids)
        dsts = csr.indices[pos]
        if prog.has_scatter and len(seg):
            eids = csr.edge_ids[pos]
            w = None if self.edges.weights is None else self.edges.weights[eids]
            st = None if edge_state is None else edge_state[eids]
            out = prog.scatter(ctx, seg.astype(dsts.dtype), values[seg], w, st)
            if edge_state is not None:
                edge_state[eids] = out
        frontier.next[dsts] = True
        local = int(
            np.count_nonzero(self._partition_of[dsts] == self._partition_of[seg])
        ) if len(seg) else 0
        return IterationProfile(
            active_vertices=len(active),
            active_in_edges=gathered_edges,
            incident_in_edges=int((csc.indptr[active + 1] - csc.indptr[active]).sum()),
            changed_vertices=len(changed_ids),
            changed_out_edges=len(seg),
            local_out_edges=local,
            touched_partitions=int(len(np.unique(self._partition_of[active]))),
            num_partitions=self.num_partitions,
        )
