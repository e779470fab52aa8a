"""On-disk shard store: the out-of-core analogue of Section 4.3.

GraphReduce's defining claim is processing graphs *larger than device
memory* by streaming shards over PCIe. On the host side of the
reproduction the same regime appears one level up the hierarchy: a graph
larger than host RAM must stream shards from *disk*. This module is that
tier -- a directory format holding one ``ShardedGraph``:

``manifest.json``
    intervals, per-shard edge counts, dtypes, graph metadata. Opening a
    store reads only this file, so ``ShardStore.open`` is O(1) RAM.
``degrees.out.npy`` / ``degrees.in.npy``
    the per-vertex degree arrays (PageRank's normalization and the
    partitioner's load model need them without touching edges).
``shardNNNNN.csc.indptr.npy`` (+ ``indices``/``eids``/``weights``, and
the same four under ``.csr.``)
    each shard's sub-arrays as plain ``.npy`` files, loaded with
    ``np.load(..., mmap_mode="r")`` so a shard's bytes fault in on
    first touch and can be dropped again by releasing the arrays.

Shards come back as :class:`LazyShard` views whose ``csc``/``csr``
properties delegate to a pluggable *source* -- by default a per-store
memo, at runtime the movement layer's ``HostPrefetcher`` -- so the
resident set is a policy decision, not a format property. The arrays a
lazy shard exposes have byte-identical dtypes and contents to the
in-RAM :class:`~repro.core.partition.Shard`, which is what keeps
out-of-core runs bit-identical to in-RAM runs.

:func:`build_store_streaming` ingests an edge-list file that never fully
resides in RAM: a chunked counting pass fixes the intervals, a bucketing
pass spills (key, neighbor, edge-id[, weight]) records per shard, and a
per-shard compression pass reproduces exactly the stable-sort layout of
:func:`repro.graph.csr._compress` -- including the global edge ids.
"""

from __future__ import annotations

import json
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.kernels import layout as layout_mod
from repro.core.partition import (
    ShardBytes,
    ShardedGraph,
    edge_balanced_from_loads,
)
from repro.graph.edgelist import VID_DTYPE, WEIGHT_DTYPE
from repro.graph.csr import CSR
from repro.graph.io import edgelist_metadata, iter_edge_chunks

FORMAT = "graphreduce-shard-store"
VERSION = 1

MANIFEST = "manifest.json"
OUT_DEGREES = "degrees.out.npy"
IN_DEGREES = "degrees.in.npy"

#: sub-array file suffixes per layout ("csc" / "csr")
_PARTS = ("indptr", "indices", "eids", "weights")

#: ``np.load`` parses each ``.npy`` header with ``ast.literal_eval``,
#: which some CPython 3.11 releases do not make thread-safe (concurrent
#: calls can raise ``SystemError: AST constructor recursion depth
#: mismatch``). The prefetcher's warming threads open shards
#: concurrently, so header parsing is serialized; the mapped bytes are
#: not read under the lock.
_NPY_OPEN_LOCK = threading.Lock()


def _open_npy(path: Path) -> np.ndarray:
    """Memory-map one ``.npy`` file, parsing its header under the lock.

    Every load from a store goes through here: the degree tables are
    first read on whichever thread runs the first PageRank gather, which
    can be a ``parallel_shards`` worker racing a prefetch load.
    """
    with _NPY_OPEN_LOCK:
        return np.load(path, mmap_mode="r")


def _shard_file(index: int, layout: str, part: str) -> str:
    return f"shard{index:05d}.{layout}.{part}.npy"


# ----------------------------------------------------------------------
# Lazy views
# ----------------------------------------------------------------------
@dataclass
class ShardArrays:
    """One shard's materialized (memmap-backed) arrays."""

    csc: CSR
    csr: CSR
    csc_weights: np.ndarray | None
    csr_weights: np.ndarray | None
    #: bytes this shard's mapped files cover (for fault accounting)
    nbytes: int = 0


class LazyShard(ShardBytes):
    """A :class:`~repro.core.partition.Shard` look-alike whose arrays
    live behind a *source* (store memo or prefetcher cache).

    Counts come from the manifest, so everything the Data Movement
    Engine sizes transfers with -- ``sub_array_bytes``, ``total_bytes``,
    ``expand_buffers`` -- never faults a byte in from disk.
    """

    __slots__ = ("index", "start", "stop", "_num_in", "_num_out", "_source")

    def __init__(self, index: int, start: int, stop: int, num_in: int, num_out: int, source):
        self.index = index
        self.start = start
        self.stop = stop
        self._num_in = num_in
        self._num_out = num_out
        self._source = source

    def bind(self, source) -> None:
        """Swap the array provider (the runtime installs its prefetcher)."""
        self._source = source

    @property
    def num_interval_vertices(self) -> int:
        return self.stop - self.start

    @property
    def num_in_edges(self) -> int:
        return self._num_in

    @property
    def num_out_edges(self) -> int:
        return self._num_out

    @property
    def csc(self) -> CSR:
        return self._source.arrays(self.index).csc

    @property
    def csr(self) -> CSR:
        return self._source.arrays(self.index).csr

    @property
    def csc_weights(self) -> np.ndarray | None:
        return self._source.arrays(self.index).csc_weights

    @property
    def csr_weights(self) -> np.ndarray | None:
        return self._source.arrays(self.index).csr_weights


class StoreEdgeList:
    """EdgeList facade over a store: metadata + memmapped degrees.

    Satisfies everything the runtime reads from ``edges`` -- counts,
    ``name``, ``undirected``, degree arrays, the ``weights is None``
    probe -- without the edges themselves ever existing in RAM.
    ``weights`` is a zero-length marker array when the run is weighted
    (stored or synthesized unit weights); real per-edge values are only
    ever touched shard-wise through the lazy shards.
    """

    def __init__(self, store: "ShardStore", weighted: bool):
        self.num_vertices = store.num_vertices
        self.num_edges = store.num_edges
        self.undirected = store.undirected
        self.name = store.name
        self.weights = np.empty(0, dtype=WEIGHT_DTYPE) if weighted else None
        self._store = store

    def with_unit_weights(self) -> "StoreEdgeList":
        return StoreEdgeList(self._store, weighted=True)

    def out_degrees(self) -> np.ndarray:
        return self._store.out_degrees()

    def in_degrees(self) -> np.ndarray:
        return self._store.in_degrees()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreEdgeList({self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, store={str(self._store.path)!r})"
        )


class _MemoSource:
    """Default array provider: load on first touch, keep forever.

    Fine for direct store use (tests, ad-hoc inspection); the runtime
    replaces it with the budgeted ``HostPrefetcher``.
    """

    def __init__(self, store: "ShardStore", unit_weights: bool):
        self._store = store
        self._unit_weights = unit_weights
        self._cache: dict[int, ShardArrays] = {}

    def arrays(self, index: int) -> ShardArrays:
        got = self._cache.get(index)
        if got is None:
            got = self._store.load_arrays(index, unit_weights=self._unit_weights)
            self._cache[index] = got
        return got


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ShardStore:
    """A ``ShardedGraph`` serialized to one directory.

    ``open`` reads the manifest only; array files are memory-mapped on
    demand through :meth:`load_arrays`.
    """

    def __init__(self, path: Path, manifest: dict):
        self.path = Path(path)
        if manifest.get("format") != FORMAT:
            raise ValueError(f"{path}: not a shard store (format={manifest.get('format')!r})")
        if manifest.get("version") != VERSION:
            raise ValueError(f"{path}: unsupported store version {manifest.get('version')!r}")
        self.manifest = manifest
        self.name: str = manifest["name"]
        self.num_vertices: int = manifest["num_vertices"]
        self.num_edges: int = manifest["num_edges"]
        self.undirected: bool = manifest["undirected"]
        self.weighted: bool = manifest["weighted"]
        self.logic: str = manifest["logic"]
        self.boundaries = np.asarray(manifest["boundaries"], dtype=np.int64)
        self.shard_meta: list[dict] = manifest["shards"]

    # -- construction ---------------------------------------------------
    @classmethod
    def open(cls, path) -> "ShardStore":
        path = Path(path)
        with (path / MANIFEST).open() as fh:
            return cls(path, json.load(fh))

    @classmethod
    def save(cls, sharded: ShardedGraph, path) -> "ShardStore":
        """Serialize an in-RAM ``ShardedGraph`` (same layout the
        streaming builder produces)."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        edges = sharded.edges
        weighted = edges.weights is not None
        np.save(path / OUT_DEGREES, edges.out_degrees())
        np.save(path / IN_DEGREES, edges.in_degrees())
        meta = []
        for shard in sharded.shards:
            for layout, csr, w in (
                ("csc", shard.csc, shard.csc_weights),
                ("csr", shard.csr, shard.csr_weights),
            ):
                np.save(path / _shard_file(shard.index, layout, "indptr"), csr.indptr)
                np.save(path / _shard_file(shard.index, layout, "indices"), csr.indices)
                np.save(path / _shard_file(shard.index, layout, "eids"), csr.edge_ids)
                if weighted:
                    np.save(path / _shard_file(shard.index, layout, "weights"), w)
            meta.append(
                {
                    "index": shard.index,
                    "start": shard.start,
                    "stop": shard.stop,
                    "in_edges": shard.num_in_edges,
                    "out_edges": shard.num_out_edges,
                }
            )
        manifest = {
            "format": FORMAT,
            "version": VERSION,
            "name": edges.name,
            "num_vertices": edges.num_vertices,
            "num_edges": edges.num_edges,
            "undirected": bool(edges.undirected),
            "weighted": weighted,
            "logic": sharded.logic,
            "dtypes": {
                "indptr": "int64",
                "indices": np.dtype(VID_DTYPE).name,
                "eids": "int64",
                "weights": np.dtype(WEIGHT_DTYPE).name,
            },
            "boundaries": [int(b) for b in sharded.boundaries],
            "shards": meta,
        }
        with (path / MANIFEST).open("w") as fh:
            json.dump(manifest, fh, indent=1)
        return cls(path, manifest)

    # -- reading --------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.shard_meta)

    def load_arrays(self, index: int, unit_weights: bool = False) -> ShardArrays:
        """Memory-map one shard's sub-arrays.

        ``unit_weights`` synthesizes per-shard ``ones`` when an
        unweighted store runs a weights-needing program -- the same
        values ``EdgeList.with_unit_weights`` would have partitioned.

        Alignment: the memmapped ``.npy`` payloads start at the format's
        64-byte ``ARRAY_ALIGN`` boundary (a page-aligned mapping keeps
        it), and the synthesized weights come from the kernel layer's
        aligned allocator, so every sub-array the fused kernels stream
        is cache-line aligned.
        """
        def load(layout: str, part: str):
            return _open_npy(self.path / _shard_file(index, layout, part))

        csc = CSR(load("csc", "indptr"), load("csc", "indices"), load("csc", "eids"))
        csr = CSR(load("csr", "indptr"), load("csr", "indices"), load("csr", "eids"))
        csc_w = csr_w = None
        if self.weighted:
            csc_w = load("csc", "weights")
            csr_w = load("csr", "weights")
        elif unit_weights:
            csc_w = layout_mod.aligned_ones(csc.num_edges, WEIGHT_DTYPE)
            csr_w = layout_mod.aligned_ones(csr.num_edges, WEIGHT_DTYPE)
        nbytes = sum(
            a.nbytes
            for a in (
                csc.indptr, csc.indices, csc.edge_ids,
                csr.indptr, csr.indices, csr.edge_ids,
            )
        )
        if csc_w is not None:
            nbytes += csc_w.nbytes + csr_w.nbytes
        return ShardArrays(csc, csr, csc_w, csr_w, nbytes)

    def out_degrees(self) -> np.ndarray:
        return _open_npy(self.path / OUT_DEGREES)

    def in_degrees(self) -> np.ndarray:
        return _open_npy(self.path / IN_DEGREES)

    def sharded_graph(self, unit_weights: bool = False, source=None) -> ShardedGraph:
        """The lazy ``ShardedGraph`` view (no shard data is read)."""
        if source is None:
            source = _MemoSource(self, unit_weights)
        edges = StoreEdgeList(self, weighted=self.weighted or unit_weights)
        shards = [
            LazyShard(m["index"], m["start"], m["stop"], m["in_edges"], m["out_edges"], source)
            for m in self.shard_meta
        ]
        return ShardedGraph(edges, self.boundaries, shards, self.logic, None, None)

    def edgelist(self) -> StoreEdgeList:
        return StoreEdgeList(self, weighted=self.weighted)

    def max_shard_bytes(self, with_weights: bool, with_edge_state: bool) -> int:
        return self.sharded_graph().max_shard_bytes(with_weights, with_edge_state)

    def max_interval_vertices(self) -> int:
        return max((m["stop"] - m["start"] for m in self.shard_meta), default=0)

    def disk_bytes(self) -> int:
        """Total size of the array files (what streaming must cover)."""
        return sum(
            f.stat().st_size for f in self.path.iterdir() if f.suffix == ".npy"
        )


# ----------------------------------------------------------------------
# Streaming ingestion: the two-pass external partitioner
# ----------------------------------------------------------------------
def _grow_to(arr: np.ndarray, size: int) -> np.ndarray:
    if size <= len(arr):
        return arr
    grown = np.zeros(size, dtype=arr.dtype)
    grown[: len(arr)] = arr
    return grown


def build_store_streaming(
    input_path,
    out_dir,
    num_partitions: int,
    chunk_edges: int = 1 << 20,
    num_vertices: int | None = None,
    name: str | None = None,
) -> ShardStore:
    """Build a shard store from an edge-list file without ever holding
    the full edge set in RAM.

    Pass 1 streams chunks accumulating degree arrays (the partitioner's
    load model and the store's ``degrees.*`` files). Pass 2 re-streams,
    bucketing each chunk's edges by destination interval (the CSC side)
    and source interval (the CSR side) into per-shard spill files of
    ``(key, neighbor, edge_id[, weight])`` records. Pass 3 reads one
    shard's records at a time, stable-sorts by key and compresses --
    reproducing :func:`repro.graph.csr._compress`'s layout exactly,
    global edge ids included, so a streamed store is bit-identical to
    ``ShardStore.save(PartitionEngine().partition(...))``.

    Peak memory: one chunk + one shard's records + the degree arrays.
    """
    input_path = Path(input_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = edgelist_metadata(input_path)

    # -- pass 1: degrees / counts --------------------------------------
    out_deg = np.zeros(0, dtype=np.int64)
    in_deg = np.zeros(0, dtype=np.int64)
    num_edges = 0
    weighted = None
    for src, dst, w in iter_edge_chunks(input_path, chunk_edges):
        if weighted is None:
            weighted = w is not None
        elif weighted != (w is not None):
            raise ValueError(f"{input_path}: mixed weighted/unweighted chunks")
        if len(src):
            hi = int(max(src.max(), dst.max())) + 1
            out_deg = _grow_to(out_deg, hi)
            in_deg = _grow_to(in_deg, hi)
            out_deg += np.bincount(src, minlength=len(out_deg))
            in_deg += np.bincount(dst, minlength=len(in_deg))
        num_edges += len(src)
    weighted = bool(weighted)
    n = meta["num_vertices"] if meta["num_vertices"] is not None else len(out_deg)
    if num_vertices is not None:
        n = num_vertices
    if n < len(out_deg):
        raise ValueError(f"{input_path}: endpoint {len(out_deg) - 1} outside [0, {n})")
    out_deg = _grow_to(out_deg, n)
    in_deg = _grow_to(in_deg, n)
    num_partitions = max(1, min(num_partitions, max(n, 1)))
    boundaries = edge_balanced_from_loads(out_deg + in_deg, num_partitions)
    np.save(out_dir / OUT_DEGREES, out_deg)
    np.save(out_dir / IN_DEGREES, in_deg)

    # -- pass 2: bucket records into per-shard spill files --------------
    fields = [("key", np.int64), ("val", np.int64), ("eid", np.int64)]
    if weighted:
        fields.append(("w", WEIGHT_DTYPE))
    rec_dtype = np.dtype(fields)
    spill_dir = out_dir / "_spill"
    spill_dir.mkdir(exist_ok=True)
    spill = {
        (i, layout): (spill_dir / f"{i:05d}.{layout}.bin").open("wb")
        for i in range(num_partitions)
        for layout in ("csc", "csr")
    }
    try:
        eid_base = 0
        for src, dst, w in iter_edge_chunks(input_path, chunk_edges):
            eids = np.arange(eid_base, eid_base + len(src), dtype=np.int64)
            eid_base += len(src)
            for layout, keys, vals in (("csc", dst, src), ("csr", src, dst)):
                recs = np.empty(len(keys), dtype=rec_dtype)
                recs["key"] = keys
                recs["val"] = vals
                recs["eid"] = eids
                if weighted:
                    recs["w"] = w
                owner = np.searchsorted(boundaries, keys, side="right") - 1
                order = np.argsort(owner, kind="stable")
                recs = recs[order]
                counts = np.bincount(owner, minlength=num_partitions)
                offset = 0
                for i in range(num_partitions):
                    c = int(counts[i])
                    if c:
                        recs[offset : offset + c].tofile(spill[(i, layout)])
                    offset += c
    finally:
        for fh in spill.values():
            fh.close()

    # -- pass 3: per-shard compression ----------------------------------
    shard_meta = []
    for i in range(num_partitions):
        start, stop = int(boundaries[i]), int(boundaries[i + 1])
        entry = {"index": i, "start": start, "stop": stop}
        for layout, count_key in (("csc", "in_edges"), ("csr", "out_edges")):
            recs = np.fromfile(spill_dir / f"{i:05d}.{layout}.bin", dtype=rec_dtype)
            # Records arrive in original edge order; a stable sort by key
            # therefore preserves per-row original order -- the layout
            # the in-RAM _compress + row_slice pipeline produces.
            order = np.argsort(recs["key"], kind="stable")
            recs = recs[order]
            counts = np.bincount(recs["key"] - start, minlength=stop - start)
            indptr = np.zeros(stop - start + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            np.save(out_dir / _shard_file(i, layout, "indptr"), indptr)
            np.save(out_dir / _shard_file(i, layout, "indices"), recs["val"].astype(VID_DTYPE))
            np.save(out_dir / _shard_file(i, layout, "eids"), np.ascontiguousarray(recs["eid"]))
            if weighted:
                np.save(out_dir / _shard_file(i, layout, "weights"), np.ascontiguousarray(recs["w"]))
            entry[count_key] = len(recs)
        shard_meta.append(entry)
    shutil.rmtree(spill_dir)

    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "name": name or meta["name"],
        "num_vertices": int(n),
        "num_edges": int(num_edges),
        "undirected": bool(meta["undirected"]),
        "weighted": weighted,
        "logic": "edge_balanced",
        "dtypes": {
            "indptr": "int64",
            "indices": np.dtype(VID_DTYPE).name,
            "eids": "int64",
            "weights": np.dtype(WEIGHT_DTYPE).name,
        },
        "boundaries": [int(b) for b in boundaries],
        "shards": shard_meta,
    }
    with (out_dir / MANIFEST).open("w") as fh:
        json.dump(manifest, fh, indent=1)
    return ShardStore(out_dir, manifest)
