"""Self-time arithmetic of the per-layer tracer."""

import threading

import pytest

from perfbench import tracer as tracer_module
from perfbench.layers import RECORDED, unrecorded
from perfbench.tracer import Ledger, Tracer


@pytest.fixture
def ticks(monkeypatch):
    """Make the tracer read its clock from a scripted list of times."""

    def script(*times):
        clock = iter(times)
        monkeypatch.setattr(tracer_module, "perf_counter_ns", lambda: next(clock))

    return script


def test_nested_spans_subtract_their_children(ticks):
    ticks(0, 10, 20, 30, 40, 50, 60, 100)
    tracer = Tracer()
    root = tracer.begin("root")
    a = tracer.begin("a")
    leaf = tracer.begin("leaf")
    tracer.end(leaf)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(root)
    ledger = tracer.drain(Ledger())
    assert ledger.self_ns == {"root": 60, "a": 20, "leaf": 10, "b": 10}
    assert ledger.main_ns == 100


def test_other_thread_spans_leave_main_self_time_alone(ticks):
    ticks(0, 10, 20, 60, 90, 100)
    tracer = Tracer()

    def worker():
        outer = tracer.begin("worker")
        load = tracer.begin("load")
        tracer.end(load)
        tracer.end(outer)

    root = tracer.begin("root")
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    tracer.end(root)
    ledger = tracer.drain(Ledger())
    assert ledger.self_ns == {"root": 100, "worker": 40, "load": 40}
    assert ledger.main_self_ns == {"root": 100}


class _Layer:
    def outer(self, release):
        self.inner()
        release.wait(5)
        return "outer"

    def inner(self):
        return "inner"

    @classmethod
    def build(cls):
        return cls()


def test_wrapped_calls_split_busy_time_by_thread():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap(_Layer, "outer", "outer", count="outer.calls")
    tracer.wrap(_Layer, "inner", "inner")
    tracer.wrap(_Layer, "build", "build")
    release = threading.Event()
    release.set()
    layer = _Layer.build()
    worker = threading.Thread(target=layer.outer, args=(release,), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert layer.outer(release) == "outer"
    tracer.unwrap_all()
    assert _Layer.__dict__["outer"] is original
    assert isinstance(_Layer.__dict__["build"], classmethod)

    ledger = tracer.drain(Ledger())
    assert ledger.counts["outer.calls"] == 2
    assert set(ledger.self_ns) == {"outer", "inner", "build"}
    # the worker's spans are busy time, but not main-thread time
    assert ledger.self_ns["outer"] > ledger.main_self_ns["outer"] > 0
    assert ledger.self_ns["inner"] > ledger.main_self_ns["inner"] > 0
    assert tracer.drain(Ledger()).self_ns == {}


def test_missing_methods_are_recorded_not_raised():
    tracer = Tracer()
    tracer.wrap(_Layer, "renamed_away", "x")
    assert tracer.missing == ["_Layer.renamed_away"]
    tracer.unwrap_all()


def test_layers_that_record_no_time_are_reported():
    setup, ledger = Ledger(), Ledger()
    setup.self_ns["partition"] = 5
    for name in RECORDED["bfs-cage15"][1:]:
        ledger.self_ns[name] = 1
    assert unrecorded("bfs-cage15", setup, ledger) == []
    del ledger.self_ns["obs"]
    assert unrecorded("bfs-cage15", setup, ledger) == ["obs"]
