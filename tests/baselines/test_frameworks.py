"""Baseline frameworks: result equivalence, cost-model behaviours,

capacity limits."""

import numpy as np
import pytest

from tests.references import sssp_distances
from repro.algorithms import BFS, SSSP, DeltaSSSP, PageRank, ConnectedComponents
from repro.baselines import CuSha, GraphChi, HostGASExecutor, MapGraph, Totem, XStream
from repro.core.runtime import GraphReduce
from repro.graph.generators import erdos_renyi, mesh2d, rmat, road_network
from repro.sim.memory import DeviceOOMError
from repro.sim.specs import DeviceSpec

ALL_CPU = [GraphChi, XStream, Totem]
ALL_GPU = [CuSha, MapGraph]


@pytest.fixture(scope="module")
def kron():
    return rmat(10, 10_000, seed=1)


@pytest.fixture(scope="module")
def mesh():
    # Wide-and-short so row-major vertex intervals keep the +/-ny stencil
    # offsets partition-local (as in the real nlpkkt160-scale meshes).
    return mesh2d(50, 16)


@pytest.fixture(scope="module")
def oversized():
    """A graph exceeding the scaled device memory (kron21-class)."""
    return rmat(14, 1_500_000, seed=4)


class TestExecutor:
    def test_executor_matches_graphreduce(self, kron):
        for prog_factory in (
            lambda: BFS(source=1),
            lambda: SSSP(source=1),
            lambda: PageRank(tolerance=1e-4),
            lambda: ConnectedComponents(),
        ):
            gr = GraphReduce(kron).run(prog_factory())
            trace = HostGASExecutor(kron, prog_factory()).run()
            assert np.array_equal(trace.vertex_values, gr.vertex_values)
            assert trace.iterations == gr.iterations
            assert trace.converged == gr.converged

    def test_profiles_census_shapes(self, kron):
        trace = HostGASExecutor(kron, BFS(source=1)).run()
        p0 = trace.profiles[0]
        assert p0.active_vertices == 1  # just the source
        assert p0.changed_vertices == 1
        assert p0.local_out_edges <= p0.changed_out_edges
        total_activated = sum(p.changed_vertices for p in trace.profiles)
        reached = np.count_nonzero(~np.isinf(trace.vertex_values))
        assert total_activated == reached

    def test_locality_census_mesh_vs_kron(self, kron, mesh):
        """Meshes keep updates partition-local; Kronecker graphs do not."""
        def locality(graph):
            trace = HostGASExecutor(graph, ConnectedComponents(), 16).run()
            tot = sum(p.changed_out_edges for p in trace.profiles)
            loc = sum(p.local_out_edges for p in trace.profiles)
            return loc / max(tot, 1)

        assert locality(mesh) > 0.7
        assert locality(kron) < 0.4
        assert locality(mesh) > 2 * locality(kron)


class TestEquivalence:
    @pytest.mark.parametrize("framework_cls", ALL_CPU + ALL_GPU)
    def test_all_frameworks_agree_with_graphreduce(self, framework_cls, kron):
        for make in (lambda: BFS(source=1), lambda: DeltaSSSP(source=1, delta=1.0)):
            gr = GraphReduce(kron).run(make())
            r = framework_cls().run(kron, make())
            assert np.array_equal(r.vertex_values, gr.vertex_values)
            assert r.iterations == gr.iterations
            assert r.sim_time > 0
            assert r.breakdown
        # The last program run is Delta-SSSP.
        expected = sssp_distances(kron.with_unit_weights(), 1)
        assert np.array_equal(r.vertex_values, expected)


class TestCostModels:
    def test_xstream_scan_bounded_by_full_sweeps(self, kron):
        """The scatter scan is partition-selective: at most one full

        sweep per iteration, and a lone active vertex costs only ~one
        partition's worth of edges."""
        xs = XStream()
        r = xs.run(kron, BFS(source=1))
        scan = r.breakdown["scatter_scan"]
        full = r.iterations * kron.num_edges / xs.config.scan_rate
        assert scan <= full
        one_partition = kron.num_edges / xs.config.num_partitions / xs.config.scan_rate
        assert scan >= one_partition

    def test_xstream_shuffle_cheaper_on_mesh(self, kron, mesh):
        """Same update count costs less when partition-local."""
        xs = XStream()
        r_mesh = xs.run(mesh, ConnectedComponents())
        r_kron = xs.run(kron, ConnectedComponents())
        # Per-update shuffle cost from the executor's census:
        t_mesh = HostGASExecutor(mesh, ConnectedComponents(), 16).run()
        t_kron = HostGASExecutor(kron, ConnectedComponents(), 16).run()
        mesh_per = r_mesh.breakdown["update_shuffle"] / max(
            sum(p.changed_out_edges for p in t_mesh.profiles), 1
        )
        kron_per = r_kron.breakdown["update_shuffle"] / max(
            sum(p.changed_out_edges for p in t_kron.profiles), 1
        )
        assert mesh_per < kron_per / 2

    def test_graphchi_selective_scheduling_helps_bfs(self):
        """A low-activity traversal streams less than an all-active one."""
        g = road_network(15, 15, 10, seed=2)
        chi = GraphChi()
        bfs = chi.run(g, BFS(source=0))
        cc = chi.run(g, ConnectedComponents())
        per_iter_bfs = bfs.breakdown["shard_stream"] / bfs.iterations
        per_iter_cc = cc.breakdown["shard_stream"] / cc.iterations
        assert per_iter_bfs < per_iter_cc

    def test_cusha_pays_full_sweeps(self, kron):
        r = CuSha().run(kron, BFS(source=1))
        per_iter = CuSha().config.edge_rate
        assert r.breakdown["compute"] >= r.iterations * kron.num_edges / per_iter

    def test_mapgraph_beats_cusha_on_high_diameter_bfs(self):
        # Needs enough edges for CuSha's full sweeps to outweigh launch
        # overheads -- the belgium_osm regime of Table 4.
        g = road_network(150, 150, 500, seed=3)
        t_cusha = CuSha().run(g, BFS(source=0)).sim_time
        t_mg = MapGraph().run(g, BFS(source=0)).sim_time
        assert t_mg < t_cusha

    def test_cusha_beats_mapgraph_on_kron_pagerank(self, kron):
        t_cusha = CuSha().run(kron, PageRank(tolerance=1e-4)).sim_time
        t_mg = MapGraph().run(kron, PageRank(tolerance=1e-4)).sim_time
        assert t_cusha < t_mg

    def test_gpu_frameworks_oom_on_large_graph(self, oversized):
        for cls in ALL_GPU:
            with pytest.raises(DeviceOOMError):
                cls().run(oversized, BFS(source=1))

    def test_graphreduce_handles_what_gpu_frameworks_cannot(self, oversized):
        r = GraphReduce(oversized).run(BFS(source=1))
        assert r.converged
        assert not r.in_memory_mode

    def test_totem_gpu_fraction_shrinks_with_graph_size(self, oversized):
        small = rmat(10, 8_000, seed=5)
        totem = Totem()
        assert totem.gpu_utilization(small) > totem.gpu_utilization(oversized)
        assert totem.gpu_utilization(oversized) < 1.0

    def test_totem_big_graph_cpu_bound(self, oversized):
        r = Totem().run(oversized, PageRank(tolerance=1e-3))
        assert r.breakdown["cpu_side"] > r.breakdown["gpu_side"]


class TestTable2Shape:
    def test_cusha_beats_xstream_most_on_kron(self, kron, mesh):
        """Table 2: the GPU advantage is largest on skewed graphs (389x

        on kron) and smallest on road networks (3x on belgium_osm)."""
        road = road_network(150, 150, 500, seed=7)
        def speedup(g):
            xs = XStream().run(g, BFS(source=0)).sim_time
            cu = CuSha().run(g, BFS(source=0)).sim_time
            return xs / cu

        # The paper's gap (389x on kron vs 3x on belgium) compresses in a
        # level-synchronous model (see EXPERIMENTS.md), but the ordering
        # -- GPU wins most on skewed graphs, least on road networks --
        # must hold.
        assert speedup(kron) > 2 * speedup(road)
        assert speedup(road) > 1  # GPU still wins
