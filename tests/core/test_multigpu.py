"""Multi-device scheduler and partitioned-ownership tests.

The multi-device scheduler (repro.core.multigpu) is a pure
performance-plane extension: values, iteration counts and convergence
are bit-identical for every device count and frontier policy; only the
simulated timeline and the replication traffic change. The property
tests pin the ownership invariants it builds on (every shard exactly
one owner; the in/out boundary sets describe the same crossing edges),
and the scaling test gates the committed 1->8 device curve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.test_fastpath import PROGRAMS
from tests.fixture_graphs import build
from tests.references import sssp_distances
from repro.algorithms import DeltaSSSP, PageRank
from repro.core.multigpu import MultiGPUGraphReduce
from repro.core.ownership import (
    OwnershipMap,
    boundary_matrix,
    boundary_sets,
    check_frontier_policy,
    owned_vertex_mask,
)
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.graph.edgelist import EdgeList
from repro.graph.generators import erdos_renyi


# ----------------------------------------------------------------------
# Ownership invariants (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def graphs_partitions_owners(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    vid = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vid, min_size=m, max_size=m))
    dst = draw(st.lists(vid, min_size=m, max_size=m))
    p = draw(st.integers(min_value=1, max_value=8))
    owners = draw(st.integers(min_value=1, max_value=8))
    edges = EdgeList(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    return edges, p, owners


@settings(max_examples=60)
@given(gpo=graphs_partitions_owners())
def test_every_shard_has_exactly_one_owner(gpo):
    edges, p, owners = gpo
    sharded = PartitionEngine().partition(edges, p)
    ownership = OwnershipMap.contiguous(sharded.num_partitions, owners)
    ownership.validate()
    claimed = [i for w in range(ownership.num_owners) for i in ownership.shards_of(w)]
    assert sorted(claimed) == list(range(sharded.num_partitions))
    # Each owner's shard run is an interval.
    for w in range(ownership.num_owners):
        ids = ownership.shards_of(w)
        assert ids == list(range(min(ids), max(ids) + 1)) if ids else True


@settings(max_examples=60, deadline=None)
@given(gpo=graphs_partitions_owners())
def test_boundary_sets_are_symmetric(gpo):
    edges, p, owners = gpo
    sharded = PartitionEngine().partition(edges, p)
    ownership = OwnershipMap.contiguous(sharded.num_partitions, owners)
    in_b, out_b = boundary_sets(sharded, ownership)
    owned = [
        owned_vertex_mask(sharded, ownership, w)
        for w in range(ownership.num_owners)
    ]
    for w in range(ownership.num_owners):
        # An owner never imports its own vertices.
        assert not owned[w][in_b[w]].any()
        # out_boundary[p] is exactly the union over consumers of the
        # imported vertices that p owns -- both sides see the same
        # crossing edges.
        read_by_others = np.zeros(sharded.num_vertices, dtype=bool)
        for c in range(ownership.num_owners):
            if c != w:
                read_by_others[in_b[c]] = True
        assert np.array_equal(
            np.flatnonzero(read_by_others & owned[w]), out_b[w]
        )
    # The pairwise matrix partitions each consumer's in-boundary.
    matrix = boundary_matrix(sharded, ownership)
    for c in range(ownership.num_owners):
        pieces = [vids for (cc, pp), vids in matrix.items() if cc == c]
        combined = np.sort(np.concatenate(pieces)) if pieces else np.array([], dtype=np.int64)
        assert np.array_equal(combined, in_b[c])


def test_ownership_rejects_bad_maps():
    with pytest.raises(ValueError, match="invalid owner"):
        OwnershipMap(num_owners=2, owner_of=(0, 2)).validate()
    with pytest.raises(ValueError, match="at least one owner"):
        OwnershipMap(num_owners=0, owner_of=()).validate()
    with pytest.raises(ValueError, match="frontier_policy"):
        check_frontier_policy("broadcast")


# ----------------------------------------------------------------------
# Multi-device scheduler
# ----------------------------------------------------------------------
def test_multigpu_bit_identical_across_device_counts():
    """Every device count and policy matches single-device GraphReduce.

    Delta-SSSP exercises the loop-control hooks (reseed on an empty
    frontier) and must also reach the reference distances.
    """
    g = build("er_mid")
    opts = GraphReduceOptions(num_partitions=4)
    for make in (PROGRAMS["pagerank"], lambda: DeltaSSSP(source=0, delta=1.0)):
        single = GraphReduce(g, options=opts).run(make())
        for n in (1, 2, 4):
            for policy in ("replicated", "partitioned"):
                r = MultiGPUGraphReduce(
                    g, num_devices=n, options=opts, frontier_policy=policy
                ).run(make())
                assert np.array_equal(r.vertex_values, single.vertex_values), (n, policy)
                assert r.iterations == single.iterations, (n, policy)
                assert r.converged == single.converged, (n, policy)
                assert r.frontier_policy == policy
                assert len(r.per_device) == n
                assert sum(d.owned_shards for d in r.per_device) == r.num_partitions
                assert sum(d.owned_vertices for d in r.per_device) == g.num_vertices
                total_sent = sum(d.bytes_sent for d in r.per_device)
                assert total_sent == r.replication_bytes
                assert r.p2p_bytes + r.host_staged_bytes == r.replication_bytes
    # The last program run is Delta-SSSP.
    expected = sssp_distances(g.with_unit_weights(), 0)
    assert np.array_equal(r.vertex_values, expected)


def test_multigpu_partitioned_replication_is_sparser():
    g = build("er_mid")
    opts = GraphReduceOptions(num_partitions=4)
    make = PROGRAMS["pagerank"]
    rep = MultiGPUGraphReduce(
        g, num_devices=4, options=opts, frontier_policy="replicated"
    ).run(make())
    par = MultiGPUGraphReduce(
        g, num_devices=4, options=opts, frontier_policy="partitioned"
    ).run(make())
    assert np.array_equal(rep.vertex_values, par.vertex_values)
    assert par.replication_bytes <= rep.replication_bytes


def test_multigpu_routes_follow_switch_topology():
    g = build("er_mid")
    make = PROGRAMS["pagerank"]
    # 4 devices fit one radix-4 switch: every pair is peer-capable.
    within = MultiGPUGraphReduce(
        g, num_devices=4, options=GraphReduceOptions(num_partitions=4)
    ).run(make())
    assert within.p2p_bytes > 0
    assert within.host_staged_bytes == 0
    # 8 devices span two switches: cross-switch pairs stage via host.
    across = MultiGPUGraphReduce(
        g, num_devices=8, options=GraphReduceOptions(num_partitions=8)
    ).run(make())
    assert across.p2p_bytes > 0
    assert across.host_staged_bytes > 0


def test_multigpu_rejects_bad_device_count():
    g = build("er_small")
    with pytest.raises(ValueError, match="num_devices"):
        MultiGPUGraphReduce(g, num_devices=0)


def test_multigpu_scaling_1_to_8_devices():
    """The committed multi-device scaling floor and replication record.

    PageRank x25 on the 65,536-vertex / 1M-edge ER graph, 8 shards.
    The simulator is deterministic, so the 1->8 speedup is machine-
    independent: it must stay at or above 2.0x, and the 8-device
    partitioned exchange must move exactly the recorded bytes.
    """
    edges = erdos_renyi(65_536, 1_000_000, seed=7, name="er-wallclock")
    opts = GraphReduceOptions(
        cache_policy="never", num_partitions=8, observe=False, trace=False
    )

    def make():
        return PageRank(tolerance=None, max_iterations=25)

    one = MultiGPUGraphReduce(edges, num_devices=1, options=opts).run(make())
    eight = MultiGPUGraphReduce(
        edges, num_devices=8, options=opts, frontier_policy="partitioned"
    ).run(make())
    assert np.array_equal(eight.vertex_values, one.vertex_values)
    assert one.sim_time / eight.sim_time >= 2.0
    assert eight.replication_bytes == 79_373_425
    assert eight.p2p_bytes == 34_038_350
    assert eight.host_staged_bytes == 45_335_075
