"""NumPy kernel backend: the existing primitives behind the interface.

This backend computes exactly what the generic compute path computes --
the same elementwise ops in the same order, so results are
bit-identical by construction -- but restructured the way the compiled
backend wants:

* temporaries live in :class:`ScratchArena` buffers keyed by
  ``(role, shard)``, so steady-state iterations stop allocating them --
  except the per-edge gathered values, which a bounds-checked
  ``np.take`` cannot write into a caller's buffer without an internal
  copy (see :meth:`NumpyKernels._edge_values`);
* the segment reduction writes through ``out=`` into an arena buffer
  (``ufunc.reduceat`` supports ``out=``), replacing the gather_map ->
  segment_reduce -> astype chain of fresh arrays;
* the sparse-bypass path reads shard CSC/CSR sub-arrays directly
  (indptr + neighbor ids) instead of materializing a cached plan.

Bit-identity notes: float ``add.reduceat`` does *not* fold a segment
left-to-right -- its inner loop sums pairwise, exactly as
``np.add.reduce`` over the same elements does. The bit-identity
argument is therefore "same segment contents, same order, same
``reduceat``": every fused path hands ``reduceat`` segments holding the
generic path's elements in the generic path's order, whatever else the
surrounding array holds. Per-edge values are the generic path's float32
ops on the same operands, whether computed per edge or per source
vertex and then gathered. Scale-by-1 and add-0 steps are skipped
entirely (SpMV's generic apply never performs them, and a skipped
``+0.0`` also avoids the ``-0.0 -> +0.0`` rewrite the real addition
would make).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.arena import ScratchArena
from repro.core.kernels.specs import ApplySpec, GatherSpec

_F32_ONE = np.float32(1.0)


_REDUCE_UFUNCS = {"add": np.add, "min": np.minimum, "or": np.bitwise_or}

#: gather kinds whose per-edge value depends on the source vertex only
_VERTEX_KINDS = frozenset({"div_degree", "add_one"})


class NumpyKernels:
    """Fused-shape kernels executed with NumPy whole-array primitives."""

    name = "numpy"
    #: the gather kernels also accept ``(n, C)`` state matrices (one
    #: column per batched query) and ``(n, W)`` uint64 bitmask words
    #: with the "or" reduction -- the batch executor's two layouts
    supports_matrix = True

    def __init__(self):
        self.arena = ScratchArena()

    # -- gather --------------------------------------------------------

    def _edge_values(self, spec: GatherSpec, values, deg, indices, weights):
        """Per-edge contributions (the fused map), as a fresh array.

        Not an arena buffer: ``np.take(..., out=)`` in its bounds-checked
        mode buffers the whole output internally, so a fresh take is
        faster and pins no O(E) buffer per shard (185k rows x 16 float32
        columns on a 2-core x86 box: 5.7 ms with ``out=``, 1.5 ms fresh).
        2-D ``values`` broadcast the per-edge degree/weight factor over
        the query columns -- same elementwise ops per column as the
        scalar path, so per-query results stay bit-identical.
        """
        if spec.kind in _VERTEX_KINDS and len(indices) >= len(values):
            # More edges than vertices (a whole-layout pass): apply the
            # source-only factor once per vertex, then gather. Each
            # element is the same float32 op on the same operands.
            if spec.kind == "div_degree":
                factor = values / (deg[:, None] if values.ndim == 2 else deg)
            else:  # add_one
                factor = values + _F32_ONE
            return np.take(factor, indices, axis=0)
        vals = np.take(values, indices, axis=0)
        if spec.kind == "copy":
            return vals
        if spec.kind == "div_degree":
            factor = np.take(deg, indices)
            op = np.divide
        elif spec.kind == "mul_weight":
            factor = weights
            op = np.multiply
        elif spec.kind == "add_weight":
            factor = weights
            op = np.add
        else:  # add_one
            np.add(vals, _F32_ONE, out=vals)
            return vals
        if values.ndim == 2:
            factor = factor[:, None]
        op(vals, factor, out=vals)
        return vals

    def gather_segments(
        self, key, spec: GatherSpec, values, deg, indices, weights, starts, verts,
        gather_temp, gather_has,
    ) -> None:
        """Fused gather over a prebuilt plan (map + reduceat + mark)."""
        vals = self._edge_values(spec, values, deg, indices, weights)
        ufunc = _REDUCE_UFUNCS[spec.reduce]
        if vals.ndim == 2:
            red = self.arena.get2d(
                (key, "gr"), len(starts), vals.shape[1], gather_temp.dtype
            )
        else:
            red = self.arena.get((key, "gr"), len(starts), gather_temp.dtype)
        ufunc.reduceat(vals, starts, axis=0, out=red)
        gather_temp[verts] = red
        gather_has[verts] = True

    def _expand_rows(self, key, indptr, loc):
        """Edge positions + segment starts for a sparse row subset."""
        counts = indptr[loc + 1] - indptr[loc]
        total = int(counts.sum())
        if total == 0:
            return None, None, None, 0
        nz = counts > 0
        loc_nz = loc[nz]
        counts_nz = counts[nz]
        starts = self.arena.get((key, "rs"), len(loc_nz), np.int64)
        starts[0] = 0
        np.cumsum(counts_nz[:-1], out=starts[1:])
        firsts = indptr[loc_nz].astype(np.int64)
        np.subtract(firsts, starts, out=firsts)
        pos = self.arena.get((key, "rp"), total, np.int64)
        pos[:] = np.arange(total, dtype=np.int64)
        pos += np.repeat(firsts, counts_nz)
        return pos, starts, nz, total

    def gather_rows(
        self, key, spec: GatherSpec, values, deg, indptr, nbr, weights, rows, base,
        gather_temp, gather_has,
    ):
        """Fused sparse-bypass gather straight off shard CSC arrays."""
        pos, starts, nz, total = self._expand_rows(key, indptr, rows - base)
        if total == 0:
            return 0, 0
        indices = self.arena.get((key, "ri"), total, nbr.dtype)
        np.take(nbr, pos, out=indices)
        w = None
        if spec.needs_weights:
            w = self.arena.get((key, "rw"), total, weights.dtype)
            np.take(weights, pos, out=w)
        self.gather_segments(
            key, spec, values, deg, indices, w, starts, rows[nz],
            gather_temp, gather_has,
        )
        return total, len(starts)

    # -- apply ---------------------------------------------------------

    def apply_block(
        self, key, spec: ApplySpec, values, gather_temp, gather_has, rows, lo, hi,
        iteration, src_pos,
    ):
        """Fused apply; returns (new values, changed mask) arena views."""
        if rows is None:
            n = hi - lo
            old = values[lo:hi]
            g = gather_temp[lo:hi]
            has = gather_has[lo:hi]
        else:
            n = len(rows)
            old = self.arena.get((key, "ao"), n, values.dtype)
            np.take(values, rows, out=old)
            g = self.arena.get((key, "ag"), n, gather_temp.dtype)
            np.take(gather_temp, rows, out=g)
            has = self.arena.get((key, "ah"), n, bool)
            np.take(gather_has, rows, out=has)
        out = self.arena.get((key, "av"), n, values.dtype)
        changed = self.arena.get((key, "ac"), n, bool)
        if spec.kind == "affine":
            np.copyto(out, np.float32(spec.fill))
            np.copyto(out, g, where=has)
            if spec.scale != 1.0:
                np.multiply(out, np.float32(spec.scale), out=out)
            if spec.base != 0.0:
                np.add(out, np.float32(spec.base), out=out)
            if spec.changed_mode == "all":
                changed.fill(True)
            elif spec.changed_mode == "none":
                changed.fill(False)
            else:
                diff = self.arena.get((key, "ad"), n, values.dtype)
                np.subtract(out, old, out=diff)
                np.abs(diff, out=diff)
                np.greater(diff, np.float32(spec.tol), out=changed)
        elif spec.kind == "min_improve":
            np.copyto(out, np.float32(np.inf))
            np.copyto(out, g, where=has)
            np.less(out, old, out=changed)
            keep = self.arena.get((key, "ak"), n, bool)
            np.logical_not(changed, out=keep)
            np.copyto(out, old, where=keep)
            if src_pos >= 0:
                changed[src_pos] = True
        else:  # mark_level
            np.isinf(old, out=changed)
            np.copyto(out, old)
            np.copyto(out, np.float32(iteration), where=changed)
        return out, changed

    # -- frontier activation -------------------------------------------

    def activate_targets(self, key, indptr, nbr, rows, base):
        """Concatenated out-neighbors of ``rows`` in CSR row order."""
        pos, _, _, total = self._expand_rows(key, indptr, rows - base)
        if total == 0:
            return nbr[:0]
        targets = self.arena.get((key, "at"), total, nbr.dtype)
        np.take(nbr, pos, out=targets)
        return targets

    def stats(self) -> dict:
        return {"backend": self.name, **self.arena.stats()}
