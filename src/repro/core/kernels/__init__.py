"""Kernel registry: interchangeable gather/apply backend selection.

Two backends implement the same fused-kernel interface:

* ``numpy`` -- the existing primitives refactored behind the interface
  (:mod:`~repro.core.kernels.numpy_backend`), always available;
* ``numba`` -- compiled single-pass kernels
  (:mod:`~repro.core.kernels.numba_backend`), opt-in, only importable
  when Numba is installed.

:func:`resolve_backend` maps the ``--kernel-backend`` option to an
instance:

* ``"auto"`` picks ``numba`` when importable, else ``numpy`` silently;
* ``"numba"`` without Numba degrades to ``numpy`` with a single
  :class:`RuntimeWarning` -- never an error;
* ``"off"`` returns ``None`` (the engine runs the generic path only;
  used by tests to pin fused-vs-generic equivalence);
* anything else raises ``ValueError``.

One backend instance serves every shard of a run, including runs whose
shards execute on ``parallel_shards`` threads: scratch buffers are
keyed per shard, so concurrent shards never share one.
"""

from __future__ import annotations

import importlib.util
import warnings

from repro.core.kernels.numpy_backend import NumpyKernels
from repro.core.kernels.specs import ApplySpec, GatherSpec

__all__ = [
    "ApplySpec",
    "GatherSpec",
    "BACKEND_CHOICES",
    "numba_available",
    "resolve_backend",
]

#: Names accepted by ``--kernel-backend`` (``"off"`` is test-only).
BACKEND_CHOICES = ("auto", "numpy", "numba")


def numba_available() -> bool:
    """True when the Numba package is importable."""
    return importlib.util.find_spec("numba") is not None


def _make_numba():
    from repro.core.kernels.numba_backend import NumbaKernels

    return NumbaKernels()


def resolve_backend(name: str):
    """Instantiate the kernel backend for an option string."""
    if name == "off":
        return None
    if name == "numpy":
        return NumpyKernels()
    if name == "auto":
        return _make_numba() if numba_available() else NumpyKernels()
    if name == "numba":
        if numba_available():
            return _make_numba()
        warnings.warn(
            "kernel backend 'numba' requested but Numba is not installed; "
            "falling back to the NumPy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return NumpyKernels()
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_CHOICES}"
    )
