"""Independent vectorized NumPy oracle for the benchmark's answers.

Same semantics as the pure-Python references the test suite uses
(``tests/references.py``), recomputed from the raw edge list with
whole-array NumPy: no shards, no frontier manager, no plan cache, no
kernel layer. Everything the engine could get wrong therefore shows up
as a mismatch.

* :func:`bfs_levels` -- level-synchronous BFS over out-edges; depths are
  float32, ``inf`` where unreached. Compared exactly.
* :func:`pagerank` -- frontier-tracked Jacobi PageRank (the suite's
  ``references.pagerank``) in float32; returns ranks, iteration count
  and per-iteration frontier sizes. Compared with the suite's documented
  few-ULP tolerance (``PAGERANK_RTOL``), the trajectory exactly.
* :func:`pagerank_power` -- fixed-round power iteration (every vertex
  active every round), the formulation a batched damping sweep runs.

Summation order: both PageRank forms sum each vertex's in-edges with
``np.add.reduceat`` (pairwise partial sums), the order the references
document for the engine, not the references' own left-to-right loop. At
these graph sizes the two orders part by more than a few ULP: a kron21
hub sums tens of thousands of terms, where left-to-right rounding drifts
by up to ~50 ULP over 20 rounds, and on the kron21 stand-in one rank
crosses the tolerance so left-to-right converges one iteration later.
"""

from __future__ import annotations

import numpy as np

F32 = np.float32

#: the few-ULP float32 tolerance the suite documents for PageRank ranks
PAGERANK_RTOL = 3e-6


class Adjacency:
    """Out-edge CSR and in-edge CSC of one edge list, original edge order
    within each row (stable sorts), plus float32 out-degrees."""

    def __init__(self, edges):
        n = edges.num_vertices
        src = np.asarray(edges.src, dtype=np.int64)
        dst = np.asarray(edges.dst, dtype=np.int64)
        self.num_vertices = n
        out_order = np.argsort(src, kind="stable")
        self.out_indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        self.out_nbr = dst[out_order]
        in_order = np.argsort(dst, kind="stable")
        in_counts = np.bincount(dst, minlength=n)
        self.in_src = src[in_order]
        self.has_in = in_counts > 0
        self.in_starts = (np.cumsum(in_counts) - in_counts)[self.has_in]
        self.outdeg = np.maximum(np.bincount(src, minlength=n), 1).astype(F32)

    def out_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated out-neighbors of ``vertices``."""
        lo = self.out_indptr[vertices]
        counts = self.out_indptr[vertices + 1] - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.repeat(lo - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return self.out_nbr[np.arange(total, dtype=np.int64) + offsets]

    def gather_sum(self, contrib: np.ndarray) -> np.ndarray:
        """Per-vertex float32 sum of ``contrib[u]`` over in-edges u->v in
        original edge order, pairwise within each vertex (0 where v has
        no in-edge)."""
        out = np.zeros(self.num_vertices, dtype=F32)
        if self.in_starts.size:
            out[self.has_in] = np.add.reduceat(contrib[self.in_src], self.in_starts)
        return out


def bfs_levels(adj: Adjacency, source: int) -> np.ndarray:
    """BFS depth from ``source`` over out-edges; ``inf`` where unreached."""
    depth = np.full(adj.num_vertices, np.inf, dtype=F32)
    depth[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        reached = np.zeros(adj.num_vertices, dtype=bool)
        reached[adj.out_neighbors(frontier)] = True
        frontier = np.flatnonzero(reached & np.isinf(depth))
        depth[frontier] = F32(level)
    return depth


def pagerank(adj: Adjacency, damping: float = 0.85, tolerance: float = 1e-3,
             max_iterations: int = 200):
    """Frontier-tracked Jacobi PageRank; returns ``(ranks, iterations,
    frontier_sizes)`` like the suite's reference."""
    n = adj.num_vertices
    base, damp, tol = F32(1.0 - damping), F32(damping), F32(tolerance)
    rank = np.ones(n, dtype=F32)
    active = np.ones(n, dtype=bool)
    sizes: list[int] = []
    iteration = 0
    while active.any() and iteration < max_iterations:
        sizes.append(int(active.sum()))
        g = adj.gather_sum(rank / adj.outdeg)
        new = np.where(active, base + damp * g, rank).astype(F32)
        changed = active & (np.abs(new - rank) > tol)
        rank = new
        active = np.zeros(n, dtype=bool)
        active[adj.out_neighbors(np.flatnonzero(changed))] = True
        iteration += 1
    return rank, iteration, sizes


def pagerank_power(adj: Adjacency, damping: float, rounds: int) -> np.ndarray:
    """Power-iteration PageRank: every vertex active for exactly
    ``rounds`` rounds."""
    base, damp = F32(1.0 - damping), F32(damping)
    rank = np.ones(adj.num_vertices, dtype=F32)
    for _ in range(rounds):
        rank = (base + damp * adj.gather_sum(rank / adj.outdeg)).astype(F32)
    return rank
