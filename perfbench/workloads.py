"""The benchmark's three workloads.

Each workload generates its graph and queries from the workload seed,
sets the engine up, and runs one *operation* at a time:

* ``pagerank-kron21`` -- one tolerance-driven PageRank solve on the
  scale-15 R-MAT stand-in for kron_g500-logn21 (3 shards streamed).
* ``bfs-cage15`` -- one apply-only BFS query on the banded stand-in for
  cage15, its source taken in turn from a stratified list.
* ``batch-kron21-ooc`` -- one ``BatchRunner.execute`` of 64 MS-BFS
  sources plus a 16-damping PageRank sweep over the kron21 graph opened
  from a ``ShardStore`` under a quarter of its footprint.

All three stay in the paper's out-of-GPU-memory streaming regime on the
scaled K20c and run with default ``GraphReduceOptions`` (W3 sets only
``memory_budget``). ``shrink`` divides graph sizes and device memory by
the same factor for the smoke tests; the benchmark itself runs at 1.

A workload also declares the configuration each engine run must report
(streaming, shard count, concurrency, kernel backend, prefetch capacity,
batch layout) and answers against :mod:`perfbench.oracle`.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import oracle
from repro.algorithms import BFS, PageRank
from repro.core import GraphReduce, GraphReduceOptions, PartitionEngine
from repro.core.batch import BatchRunner
from repro.core.kernels import numba_available
from repro.core.shardstore import ShardStore
from repro.graph import EdgeList, generators as gen
from repro.graph.properties import footprint_bytes
from repro.sim.specs import default_machine

#: kernel backend ``kernel_backend="auto"`` promises on this machine
DEFAULT_KERNELS = "numba" if numba_available() else "numpy"


@dataclass
class Answer:
    """One query's output: values plus its trajectory (iteration count
    and frontier sizes where the query's semantics fix them)."""

    values: np.ndarray
    trajectory: tuple = ()

    def same_as(self, other: "Answer") -> bool:
        return self.trajectory == other.trajectory and np.array_equal(
            self.values, other.values
        )


def _pagerank_matches(got: Answer, want: Answer) -> bool:
    """Same trajectory, ranks within the suite's few-ULP tolerance."""
    return got.trajectory == want.trajectory and np.allclose(
        got.values, want.values, rtol=oracle.PAGERANK_RTOL, atol=0
    )


def executed_config(result) -> dict:
    """What one engine run reports it actually executed."""
    return {
        "in_memory_mode": bool(result.in_memory_mode),
        "num_partitions": int(result.num_partitions),
        "concurrent_shards": int(result.concurrent_shards),
        "kernel_backend": result.kernels["backend"] if result.kernels else "off",
        "prefetch_capacity": result.prefetch["capacity"] if result.prefetch else None,
        "prefetch_workers": result.prefetch["workers"] if result.prefetch else None,
        "batch_layout": result.batch["layout"] if result.batch else None,
    }


def _streamed(partitions: int, concurrent: int, **extra) -> dict:
    return {
        "in_memory_mode": False,
        "num_partitions": partitions,
        "concurrent_shards": concurrent,
        "kernel_backend": DEFAULT_KERNELS,
        "prefetch_capacity": None,
        "prefetch_workers": None,
        "batch_layout": None,
        **extra,
    }


def kron21(seed: int, shrink: int):
    """Scale-15 R-MAT stand-in for kron_g500-logn21 (32,768 vertices,
    1.48M edges at ``shrink=1``)."""
    scale = 15 - int(np.log2(shrink))
    return gen.rmat(scale, 1_480_000 // shrink, seed=seed, name="kron_g500-logn21")


def cage15(seed: int, shrink: int):
    """Banded stand-in for cage15 (80,544 vertices, 1.59M edges at
    ``shrink=1``); the 300-wide band gives a diameter of a few hundred."""
    return gen.banded(80_544 // shrink, max(300 // shrink, 40), 20, seed=seed,
                      name="cage15")


#: builds ``workloads.<argv[1]>(seed, shrink)`` and pickles it to argv[4]
_GENERATE = (
    "import pickle, sys\n"
    "from perfbench import workloads\n"
    "graph = getattr(workloads, sys.argv[1])(int(sys.argv[2]), int(sys.argv[3]))\n"
    "with open(sys.argv[4], 'wb') as fh:\n"
    "    pickle.dump(graph, fh, protocol=pickle.HIGHEST_PROTOCOL)\n"
)


def generate(builder, seed: int, shrink: int, workdir: Path):
    """Build an input graph in a child process and return it.

    The generators' transient memory (R-MAT oversamples, then
    deduplicates) would otherwise set this process's peak RSS and hide
    the engine's own footprint from ``peak_rss_mb``. The child is a
    plain interpreter that ``subprocess.run`` waits for: a
    ``multiprocessing`` pool would also start a resource-tracker process
    that outlives this one.
    """
    root = Path(__file__).resolve().parent.parent
    out = workdir / f"{builder.__name__}.pickle"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    subprocess.run([sys.executable, "-c", _GENERATE, builder.__name__, str(seed),
                    str(shrink), str(out)], check=True, env=env)
    try:
        with open(out, "rb") as fh:
            return pickle.load(fh)
    finally:
        out.unlink()


class Workload:
    """Base: inputs from the seed, timed set-up, one operation per call."""

    name = ""
    #: configuration every engine run of one operation must report
    declared: list[dict] = []
    #: queries one operation answers
    queries = 1

    def __init__(self, seed: int, shrink: int = 1, workdir: Path | None = None):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 1])
        machine = default_machine()
        self.machine = machine.with_device_memory(machine.device.memory_bytes // shrink)
        self.engine = None

    def prepare(self) -> None:
        """One-off input preparation that is not part of set-up."""

    def setup(self) -> None:
        """The timed set-up: builds :attr:`engine`."""
        raise NotImplementedError

    def setup_done(self) -> None:
        """Release what only set-up needed, before operations run."""

    def specs(self) -> list:
        """The distinct operations, in the order one round runs them."""
        return [None]

    def execute(self, spec) -> tuple[list, dict]:
        """Run one operation: ``(engine results, {query key: Answer})``."""
        raise NotImplementedError

    def expected(self, key) -> Answer:
        """The oracle's answer for one query key."""
        raise NotImplementedError

    def matches(self, key, got: Answer, want: Answer) -> bool:
        return got.same_as(want)

    def close(self) -> None:
        self.engine = None


class PageRankKron21(Workload):
    name = "pagerank-kron21"
    declared = [_streamed(3, 3)]

    def __init__(self, seed, shrink=1, workdir=None):
        super().__init__(seed, shrink, workdir)
        self.edges = generate(kron21, seed, shrink, workdir)

    def setup(self):
        self.engine = GraphReduce(self.edges, machine=self.machine)
        # A zero-iteration run makes the engine choose and cache its
        # partition; that is the one-time cost a first solve pays.
        self.engine.run(PageRank(tolerance=1e-3), max_iterations=0)

    def execute(self, spec):
        r = self.engine.run(PageRank(tolerance=1e-3))
        traj = (r.iterations, r.converged, tuple(r.frontier_history[: r.iterations]))
        return [r], {"pagerank": Answer(r.vertex_values, traj)}

    def expected(self, key):
        ranks, iterations, sizes = oracle.pagerank(oracle.Adjacency(self.edges))
        return Answer(ranks, (iterations, True, tuple(sizes)))

    def matches(self, key, got, want):
        return _pagerank_matches(got, want)


class BfsCage15(Workload):
    name = "bfs-cage15"
    declared = [_streamed(3, 3)]
    #: sources per round, one per equal-width stratum of the vertex ids
    SOURCES = 24

    def __init__(self, seed, shrink=1, workdir=None):
        super().__init__(seed, shrink, workdir)
        self.edges = generate(cage15, seed, shrink, workdir)
        n = self.edges.num_vertices
        # Stratified so every seed spans the same range of BFS depths.
        strata = np.arange(self.SOURCES) + self.rng.random(self.SOURCES)
        self.sources = self.rng.permutation((strata * n / self.SOURCES).astype(np.int64))
        self._adj = None

    def setup(self):
        self.engine = GraphReduce(self.edges, machine=self.machine)
        self.engine.run(BFS(source=int(self.sources[0])), max_iterations=0)

    def specs(self):
        return [int(s) for s in self.sources]

    def execute(self, source):
        r = self.engine.run(BFS(source=source))
        return [r], {("bfs", source): Answer(r.vertex_values, (r.converged,))}

    def expected(self, key):
        if self._adj is None:
            self._adj = oracle.Adjacency(self.edges)
        return Answer(oracle.bfs_levels(self._adj, key[1]), (True,))


class BatchKron21OutOfCore(Workload):
    name = "batch-kron21-ooc"
    BFS_SOURCES = 64
    DAMPINGS = 16
    ROUNDS = 20
    queries = BFS_SOURCES + DAMPINGS
    #: 8 shards on disk; the budget leaves the prefetcher 2 resident
    #: shards for MS-BFS and 1 for the 16-column PageRank state
    declared = [
        _streamed(8, 8, prefetch_capacity=2, prefetch_workers=2, batch_layout="bits"),
        _streamed(8, 8, prefetch_capacity=1, prefetch_workers=2, batch_layout="columns"),
    ]

    def __init__(self, seed, shrink=1, workdir=None):
        super().__init__(seed, shrink, workdir)
        self.edges = generate(kron21, seed, shrink, workdir)
        n = self.num_vertices = self.edges.num_vertices
        self.sources = self.rng.choice(n, self.BFS_SOURCES, replace=False)
        self.dampings = np.sort(self.rng.uniform(0.5, 0.95, self.DAMPINGS))
        self.options = GraphReduceOptions(memory_budget=footprint_bytes(self.edges) // 4)
        self._stores = 0
        self._adj = None

    def prepare(self):
        self.sharded = PartitionEngine().partition(self.edges, 8)

    def setup(self):
        path = self.workdir / f"store{self._stores}"
        self._stores += 1
        store = ShardStore.open(ShardStore.save(self.sharded, path).path)
        old = self.engine
        self.engine = GraphReduce(shard_store=store, machine=self.machine,
                                  options=self.options)
        if old is not None:
            shutil.rmtree(old.shard_store.path)

    def setup_done(self):
        # Only the oracle needs the edge list again; park it on disk so
        # that peak_rss_mb holds the store-backed engine alone.
        np.save(self.workdir / "src.npy", self.edges.src)
        np.save(self.workdir / "dst.npy", self.edges.dst)
        self.sharded = self.edges = None

    def execute(self, spec):
        runner = BatchRunner(self.engine, batch_size=64)
        for s in self.sources:
            runner.submit("bfs", source=int(s))
        for d in self.dampings:
            runner.submit("pagerank", damping=float(d), iterations=self.ROUNDS)
        report = runner.execute()
        answers = {}
        for q in report.queries:
            if q.family == "bfs":
                key = ("bfs", q.params["source"])
            else:
                key = ("pagerank", q.params["damping"])
            answers[key] = Answer(q.values, (q.iterations,) if q.family == "pagerank" else ())
        return report.runs, answers

    def expected(self, key):
        if self._adj is None:
            self._adj = oracle.Adjacency(EdgeList(
                self.num_vertices, np.load(self.workdir / "src.npy"),
                np.load(self.workdir / "dst.npy")))
        if key[0] == "bfs":
            return Answer(oracle.bfs_levels(self._adj, key[1]))
        return Answer(oracle.pagerank_power(self._adj, key[1], self.ROUNDS), (self.ROUNDS,))

    def matches(self, key, got, want):
        return got.same_as(want) if key[0] == "bfs" else _pagerank_matches(got, want)

    def close(self):
        self.engine = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PageRankKron21, BfsCage15, BatchKron21OutOfCore)}
