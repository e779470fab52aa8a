"""Shard-store format, streaming external partitioner, host prefetcher.

Three layers of the out-of-core stack, bottom up: the on-disk directory
format must round-trip a ``ShardedGraph`` bit-for-bit; the streaming
builder must produce byte-identical stores to the in-RAM
``ShardStore.save`` path (global edge ids included); and the
``HostPrefetcher``'s cache accounting -- capacity, LRU eviction order,
frontier-skip suppression, hit/wait/fault attribution -- must match its
documented contract, since ``repro profile`` and the bench gate report
those numbers as facts.
"""

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from tests.fixture_graphs import build
from repro.algorithms import PageRank
from repro.core.movement import HostPrefetcher
from repro.core.partition import PartitionEngine
from repro.core.runtime import GraphReduce, GraphReduceOptions
from repro.core.shardstore import (
    MANIFEST,
    ShardStore,
    build_store_streaming,
)
from repro.graph.io import save_edgelist_txt, save_npz


def _store(tmp_path, graph, p=3, name="store"):
    return ShardStore.save(PartitionEngine().partition(graph, p), tmp_path / name)


# ----------------------------------------------------------------------
# Directory format round-trip
# ----------------------------------------------------------------------
class TestShardStoreFormat:
    @pytest.mark.parametrize("graph_name", ["er_mid", "rmat_small", "mostly_isolated"])
    def test_roundtrip_arrays_identical(self, graph_name, tmp_path):
        g = build(graph_name).with_random_weights(seed=5)
        sharded = PartitionEngine().partition(g, 3)
        store = ShardStore.save(sharded, tmp_path / "s")
        reopened = ShardStore.open(tmp_path / "s")
        assert reopened.num_partitions == len(sharded.shards)
        assert reopened.num_vertices == g.num_vertices
        assert reopened.num_edges == g.num_edges
        assert reopened.weighted
        lazy = reopened.sharded_graph()
        np.testing.assert_array_equal(lazy.boundaries, sharded.boundaries)
        for a, b in zip(sharded.shards, lazy.shards):
            for layout in ("csc", "csr"):
                x, y = getattr(a, layout), getattr(b, layout)
                assert x.indptr.dtype == y.indptr.dtype
                assert x.indices.dtype == y.indices.dtype
                assert x.edge_ids.dtype == y.edge_ids.dtype
                np.testing.assert_array_equal(x.indptr, y.indptr)
                np.testing.assert_array_equal(x.indices, y.indices)
                np.testing.assert_array_equal(x.edge_ids, y.edge_ids)
            np.testing.assert_array_equal(a.csc_weights, b.csc_weights)
            np.testing.assert_array_equal(a.csr_weights, b.csr_weights)
            # The movement engine sizes transfers from these -- they must
            # agree with the in-RAM shard without loading any arrays.
            assert a.total_bytes(True, False) == b.total_bytes(True, False)
            assert a.num_in_edges == b.num_in_edges
            assert a.num_out_edges == b.num_out_edges

    def test_open_is_lazy(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        reopened = ShardStore.open(store.path)
        loads = []
        orig = ShardStore.load_arrays
        reopened.load_arrays = lambda i, unit_weights=False: (
            loads.append(i) or orig(reopened, i, unit_weights=unit_weights)
        )
        lazy = reopened.sharded_graph()
        # Counts, intervals and byte sizing come from the manifest alone.
        for shard in lazy.shards:
            shard.num_in_edges, shard.num_out_edges, shard.num_interval_vertices
            shard.total_bytes(False, False)
        assert loads == []
        lazy.shards[1].csc  # first array touch faults exactly one shard
        assert loads == [1]

    def test_unit_weights_synthesized(self, tmp_path):
        g = build("er_mid")  # unweighted
        store = _store(tmp_path, g)
        assert not store.weighted
        arrays = store.load_arrays(0, unit_weights=True)
        np.testing.assert_array_equal(
            arrays.csc_weights, np.ones(arrays.csc.num_edges, dtype=np.float32)
        )
        np.testing.assert_array_equal(
            arrays.csr_weights, np.ones(arrays.csr.num_edges, dtype=np.float32)
        )
        assert store.load_arrays(0).csc_weights is None

    def test_open_rejects_non_store(self, tmp_path):
        (tmp_path / MANIFEST).write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a shard store"):
            ShardStore.open(tmp_path)
        (tmp_path / MANIFEST).write_text(
            json.dumps({"format": "graphreduce-shard-store", "version": 99})
        )
        with pytest.raises(ValueError, match="version"):
            ShardStore.open(tmp_path)

    def test_store_edgelist_facade(self, tmp_path):
        g = build("path300")
        store = _store(tmp_path, g)
        edges = store.edgelist()
        assert (edges.num_vertices, edges.num_edges) == (g.num_vertices, g.num_edges)
        assert edges.name == g.name
        assert edges.weights is None  # unweighted marker
        np.testing.assert_array_equal(edges.out_degrees(), g.out_degrees())
        np.testing.assert_array_equal(edges.in_degrees(), g.in_degrees())
        unit = edges.with_unit_weights()
        assert unit.weights is not None and len(unit.weights) == 0  # weighted marker

    def test_disk_bytes_covers_array_files(self, tmp_path):
        store = _store(tmp_path, build("er_mid"))
        expected = sum(
            f.stat().st_size for f in store.path.iterdir() if f.suffix == ".npy"
        )
        assert store.disk_bytes() == expected > 0


# ----------------------------------------------------------------------
# Streaming external partitioner
# ----------------------------------------------------------------------
def _assert_stores_byte_identical(a, b):
    names_a = sorted(p.name for p in a.path.iterdir())
    names_b = sorted(p.name for p in b.path.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a.path / name).read_bytes() == (b.path / name).read_bytes(), name


class TestStreamingBuilder:
    def test_npz_matches_in_ram_save(self, tmp_path):
        g = build("rmat_small").with_random_weights(seed=9)
        save_npz(g, tmp_path / "g.npz")
        in_ram = _store(tmp_path, g, p=4, name="ram")
        # chunk_edges far below the edge count forces many ragged chunks
        streamed = build_store_streaming(
            tmp_path / "g.npz", tmp_path / "streamed", 4, chunk_edges=37, name=g.name
        )
        _assert_stores_byte_identical(in_ram, streamed)

    def test_txt_matches_in_ram_save(self, tmp_path):
        g = build("er_mid")  # unweighted: text ids round-trip exactly
        save_edgelist_txt(g, tmp_path / "g.txt")
        in_ram = _store(tmp_path, g, p=3, name="ram")
        streamed = build_store_streaming(
            tmp_path / "g.txt",
            tmp_path / "streamed",
            3,
            chunk_edges=23,
            num_vertices=g.num_vertices,
            name=g.name,
        )
        _assert_stores_byte_identical(in_ram, streamed)

    def test_num_vertices_extends_past_max_endpoint(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        store = build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 2, num_vertices=10)
        assert store.num_vertices == 10
        assert store.num_edges == 2
        assert len(store.out_degrees()) == 10

    def test_endpoint_outside_declared_range_rejected(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 5\n")
        with pytest.raises(ValueError, match="outside"):
            build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 2, num_vertices=3)

    def test_empty_input(self, tmp_path):
        (tmp_path / "g.txt").write_text("# nothing but comments\n% here\n")
        store = build_store_streaming(tmp_path / "g.txt", tmp_path / "s", 4, num_vertices=4)
        assert (store.num_vertices, store.num_edges) == (4, 0)
        reopened = ShardStore.open(store.path)
        for i in range(reopened.num_partitions):
            arrays = reopened.load_arrays(i)
            assert arrays.csc.num_edges == 0 and arrays.csr.num_edges == 0


# ----------------------------------------------------------------------
# HostPrefetcher accounting (against a fake store)
# ----------------------------------------------------------------------
def _fake_arrays(index):
    a = np.full(8, index, dtype=np.int64)
    csr = SimpleNamespace(indptr=a, indices=a.astype(np.int32), edge_ids=a)
    return SimpleNamespace(csc=csr, csr=csr, csc_weights=None, csr_weights=None, nbytes=100)


class FakeStore:
    """Records load order; optionally stalls loads on an Event."""

    def __init__(self):
        self.loads = []
        self.block = None
        self._lock = threading.Lock()

    def load_arrays(self, index, unit_weights=False):
        if self.block is not None:
            assert self.block.wait(5.0)
        with self._lock:
            self.loads.append(index)
        return _fake_arrays(index)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


class TestHostPrefetcher:
    def test_capacity_floor(self):
        assert HostPrefetcher(FakeStore(), capacity=0, workers=0).capacity == 1

    def test_lru_eviction_order(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=2, workers=0)
        evicted = []
        pf.on_evict = evicted.append
        for i in (0, 1, 2):
            pf.get(i)
        assert (pf.faults, pf.evictions) == (3, 1)
        assert evicted == [0]  # least recently used first
        assert pf.get(1) is not None and pf.hits == 1  # refreshed 1
        pf.get(0)  # refault -> evicts 2, not the just-touched 1
        assert (pf.faults, pf.evictions) == (4, 2)
        assert evicted == [0, 2]
        assert store.loads == [0, 1, 2, 0]

    def test_workers_zero_never_prefetches(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=4, workers=0)
        pf.schedule([0, 1, 2])
        assert store.loads == [] and pf.prefetched == 0
        pf.get(0)
        assert (pf.faults, pf.hits) == (1, 0)

    def test_schedule_warms_capacity_minus_one_ahead(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=3, workers=1)
        try:
            pf.schedule([5, 6, 7, 8])
            _wait_until(lambda: pf.prefetched == 2)
            assert sorted(store.loads) == [5, 6]  # one slot stays for compute
            _wait_until(lambda: pf.get(5) is not None)
            assert pf.hits == 1 and pf.faults == 0
            # Consuming shard 5 advances the window: 7 gets warmed next.
            _wait_until(lambda: 7 in store.loads)
            assert 8 not in store.loads
        finally:
            pf.shutdown()

    def test_frontier_skip_suppression(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=8, workers=1)
        try:
            pf.schedule([0, 2, 4])  # frontier skipped shards 1 and 3
            _wait_until(lambda: pf.prefetched == 3)
            assert sorted(store.loads) == [0, 2, 4]
            for i in (0, 2, 4):
                pf.get(i)
            assert (pf.hits, pf.waits, pf.faults) == (3, 0, 0)
            assert sorted(store.loads) == [0, 2, 4]  # skipped shards never touched
        finally:
            pf.shutdown()

    def test_wait_accounting(self):
        store = FakeStore()
        store.block = threading.Event()
        pf = HostPrefetcher(store, capacity=2, workers=1)
        try:
            pf.schedule([7, 8])
            _wait_until(lambda: 7 in pf._futures)  # in flight, stalled on the event
            threading.Timer(0.05, store.block.set).start()
            arrays = pf.get(7)
            assert arrays is not None
            assert (pf.hits, pf.waits, pf.faults) == (0, 1, 0)
            assert pf.wait_seconds > 0.0
            kinds = {kind for kind, *_ in pf.lane}
            assert {"prefetch", "wait"} <= kinds
        finally:
            store.block.set()
            pf.shutdown()

    def test_arrays_reads_are_uncounted(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=2, workers=0)
        pf.get(0)
        for _ in range(5):
            pf.arrays(0)
        assert (pf.hits, pf.faults) == (0, 1)
        pf.get(1)
        pf.get(2)  # evicts 0 (arrays() reads do not refresh LRU order)
        pf.arrays(0)  # falls back to a counted get -> fault
        assert pf.faults == 4

    def test_shutdown_keeps_counters(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=1, workers=0)
        pf.get(0)
        pf.get(1)
        pf.shutdown()
        pf.shutdown()  # idempotent
        snap = pf.snapshot()
        assert snap["faults"] == 2 and snap["evictions"] == 1
        assert snap["hit_rate"] == 0.0
        assert snap["capacity"] == 1 and snap["workers"] == 0
        assert len(snap["lane"]) == 2

    def test_snapshot_hit_rate(self):
        store = FakeStore()
        pf = HostPrefetcher(store, capacity=4, workers=0)
        pf.get(0)
        pf.get(0)
        pf.get(0)
        snap = pf.snapshot()
        assert snap["hit_rate"] == pytest.approx(2 / 3)
        assert snap["bytes_loaded"] == 100  # one fake shard faulted in


# ----------------------------------------------------------------------
# Runtime integration: budgeted capacity and counters
# ----------------------------------------------------------------------
class TestRuntimeIntegration:
    def test_budget_one_runs_with_capacity_one(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        opts = GraphReduceOptions(memory_budget=1, host_prefetch=False)
        result = GraphReduce(shard_store=store, options=opts).run(
            PageRank(tolerance=None, max_iterations=3)
        )
        pf = result.prefetch
        assert pf["capacity"] == 1 and pf["workers"] == 0
        assert pf["evictions"] > 0  # every acquisition churns the 1-slot cache
        assert pf["hits"] + pf["waits"] + pf["faults"] > 0
        assert pf["bytes_loaded"] > 0

    def test_unbudgeted_store_run_caches_everything(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        result = GraphReduce(shard_store=store).run(
            PageRank(tolerance=None, max_iterations=3)
        )
        pf = result.prefetch
        assert pf["capacity"] == store.num_partitions
        assert pf["evictions"] == 0

    def test_partition_count_mismatch_rejected(self, tmp_path):
        store = _store(tmp_path, build("er_mid"), p=4)
        engine = GraphReduce(shard_store=store, options=GraphReduceOptions(num_partitions=3))
        with pytest.raises(ValueError, match="partition"):
            engine.run(PageRank(tolerance=None, max_iterations=2))


def _prefetch_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("shard-prefetch")]


# ----------------------------------------------------------------------
# Prefetcher lifetime when an iteration raises mid-run
# ----------------------------------------------------------------------
class ExplodingPageRank(PageRank):
    def apply(self, ctx, vertex_ids, old_values, gathered, has_gathered, iteration):
        if iteration >= 1:
            raise RuntimeError("boom in apply")
        return super().apply(ctx, vertex_ids, old_values, gathered, has_gathered, iteration)


def test_prefetcher_threads_die_when_iteration_raises(tmp_path):
    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    assert not _prefetch_threads()
    with pytest.raises(RuntimeError, match="boom in apply"):
        GraphReduce(
            shard_store=store,
            options=GraphReduceOptions(host_prefetch=True, prefetch_workers=2),
        ).run(ExplodingPageRank(tolerance=1e-3))
    # runtime's try/finally shuts the prefetcher down synchronously
    # (shutdown(wait=True)), so no warming thread survives the raise.
    assert not _prefetch_threads()


def test_prefetcher_context_manager_shuts_down(tmp_path):
    g = build("er_mid")
    store = ShardStore.save(PartitionEngine().partition(g, 3), tmp_path / "s")
    with pytest.raises(RuntimeError, match="mid-iteration"):
        with HostPrefetcher(store, capacity=3, workers=2) as pf:
            pf.schedule([0, 1, 2])
            raise RuntimeError("mid-iteration")
    assert not _prefetch_threads()
