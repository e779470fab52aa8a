"""Host wall-clock span tracer for the benchmark's per-layer ledger.

The tracer measures the program from outside: :meth:`Tracer.wrap`
replaces a public method of a layer's class with a wrapper that opens a
span, calls the original and closes the span. Nothing under ``src/`` is
edited; :meth:`Tracer.unwrap_all` restores every original.

A span is a frame ``[layer, start, child time]`` on its thread's stack.
When it closes, its duration minus the time its children took is added
to the layer's **self time**, and its duration to the parent frame's
child time, so nested layers are never counted twice. Spans on another
thread (the prefetcher's warming workers) have no parent on the main
thread and take nothing from a main-thread span's self time: they are
busy time on their own thread.

:meth:`Tracer.drain` folds the totals into a :class:`Ledger` and clears
them.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Ledger:
    """Per-layer totals folded from drained tracers (nanoseconds)."""

    #: self time per layer, all threads
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: self time per layer, main thread only
    main_self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: wrapper-maintained counters (calls, bytes)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    @property
    def main_ns(self) -> int:
        """Main-thread time covered by any span (self times add up to
        the outermost spans' durations)."""
        return sum(self.main_self_ns.values())


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self):
        self.main_tid = threading.main_thread().ident
        self._local = threading.local()
        self._lock = threading.Lock()
        self._self_ns: dict[str, int] = defaultdict(int)
        self._main_self_ns: dict[str, int] = defaultdict(int)
        self._counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[type, str, object, bool]] = []
        #: ``Class.method`` names a wrap request could not find
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [name, perf_counter_ns(), 0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        duration = perf_counter_ns() - frame[1]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        own = duration - frame[2]
        with self._lock:
            self._self_ns[frame[0]] += own
            if threading.get_ident() == self.main_tid:
                self._main_self_ns[frame[0]] += own

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counts[name] += n

    # -- patching -------------------------------------------------------
    def wrap(self, owner: type, attr: str, layer, count: str | None = None,
             on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``layer`` is a name or a callable mapping the call's positional
        arguments to one. ``count`` names a counter bumped per call;
        ``on_result`` may inspect or replace the return value. A missing
        method is recorded in :attr:`missing` instead of raising, so one
        run can report every name a rename in the program broke.
        """
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        binder = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        func = static.__func__ if binder is not None else static
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer.begin(layer(args) if callable(layer) else layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(frame)
            if count is not None:
                tracer.count(count)
            if on_result is not None:
                result = on_result(result)
            return result

        self._patched.append((owner, attr, static, attr in owner.__dict__))
        setattr(owner, attr, binder(traced) if binder is not None else traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, static, own = self._patched.pop()
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)

    # -- reduction ------------------------------------------------------
    def drain(self, ledger: Ledger) -> Ledger:
        """Fold every closed span's self time and every counter into
        ``ledger``; clear them."""
        with self._lock:
            own, self._self_ns = self._self_ns, defaultdict(int)
            main, self._main_self_ns = self._main_self_ns, defaultdict(int)
            counts, self._counts = self._counts, defaultdict(float)
        for name, ns in own.items():
            ledger.self_ns[name] += ns
        for name, ns in main.items():
            ledger.main_self_ns[name] += ns
        for name, n in counts.items():
            ledger.counts[name] += n
        return ledger
