"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload pagerank-kron21 --seed 1 --seconds 15 --trace 0

The workloads are defined in ``perfbench/workloads.py`` and described,
with the metric map, in ``perfbench/README.md``. One run:

1. generates the workload's graph and queries from ``--seed``;
2. sets the engine up ``SETUPS`` or more times (``setup_s`` is the median);
3. runs one untimed warm-up operation, then whole rounds of operations
   until ``--seconds`` have passed;
4. checks every operation: the executed configuration against the
   workload's declared one, no exception and no ``RuntimeWarning``,
   every repeat bit-identical to the query's first answer, and (once,
   after timing) every first answer against the NumPy oracle.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run is split in halves, untraced then traced, and
the last line carries the per-layer ledger plus ``trace.overhead_frac``.
The line before it is a JSON record of the machine, the seed, the
executed configuration and any problems found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per run: at least ``SETUPS``, more while their total stays
#: under ``SETUP_SECONDS``, at most ``MAX_SETUPS``; ``setup_s`` reports
#: their median
SETUPS = 7
SETUP_SECONDS = 2.0
MAX_SETUPS = 64
#: largest share of the traced operations' wall time (timed outside the
#: tracer) that the main-thread layer self times may miss or overcount
#: before the ledger counts as wrong
RECONCILE_TOLERANCE = 0.01


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path[:0] = [str(src), str(ROOT)]


class Checks:
    """Per-query first answers and every problem found."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict = {}
        #: timed operations per query key that matched the first answer
        self.ok_ops: Counter = Counter()
        self.problems: list[str] = []
        self.executed: list[dict] | None = None

    def operation(self, results, answers, error, caught, timed: bool) -> int:
        """Check one operation; returns how many of its queries failed."""
        from perfbench.workloads import executed_config

        wl = self.workload
        problems = []
        if error is not None:
            problems.append(f"exception: {error!r}")
        problems += [f"warning: {w.message}" for w in caught
                     if issubclass(w.category, RuntimeWarning)]
        config = [executed_config(r) for r in results]
        if self.executed is None and results:
            self.executed = config
        if error is None and config != wl.declared:
            problems.append(f"executed {config}, declared {wl.declared}")
        if error is None and len(answers) != wl.queries:
            problems.append(f"{len(answers)} answers for {wl.queries} queries")
        if problems:
            self.problems += problems
            return wl.queries
        failed = 0
        for key, answer in answers.items():
            first = self.first.setdefault(key, answer)
            if answer is first or answer.same_as(first):
                if timed:
                    self.ok_ops[key] += 1
            else:
                failed += 1
                self.problems.append(f"{key}: repeat differs from its first answer")
        return failed

    def oracle(self) -> int:
        """Failed timed queries whose first answer the oracle rejects."""
        failed = 0
        for key, answer in self.first.items():
            if not self.workload.matches(key, answer, self.workload.expected(key)):
                failed += self.ok_ops[key]
                self.problems.append(f"{key}: answer differs from the oracle")
        return failed


def enough_setups(times: list[float], trace: bool) -> bool:
    """One set-up for a traced run; see ``SETUPS`` otherwise."""
    if trace:
        return len(times) >= 1
    return len(times) >= MAX_SETUPS or (
        len(times) >= SETUPS and sum(times) >= SETUP_SECONDS)


def run_operation(wl, spec, checks: Checks, timed: bool = True):
    """One operation: ``(wall seconds, failed queries, engine results)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error = None
        t0 = time.perf_counter()
        try:
            results, answers = wl.execute(spec)
        except Exception as exc:  # a failing operation is counted, not fatal
            results, answers, error = [], {}, exc
        wall = time.perf_counter() - t0
    failed = checks.operation(results, answers, error, caught, timed)
    return wall, failed, results


@dataclass
class Op:
    spec: object
    wall: float
    failed: int
    sim_s: float
    h2d_bytes: int


def measure(wl, seconds: float, checks: Checks, on_op=None) -> list[Op]:
    """Whole rounds of the workload's operations until ``seconds`` pass.

    ``on_op`` sees each operation's engine results right after it ran,
    outside its timed region; the results are not kept.
    """
    ops = []
    start = time.perf_counter()
    while True:
        for spec in wl.specs():
            wall, failed, results = run_operation(wl, spec, checks)
            if on_op is not None:
                on_op(results)
            ops.append(Op(spec, wall, failed, sum(r.sim_time for r in results),
                          sum(r.stats.h2d_bytes for r in results)))
        if time.perf_counter() - start >= seconds:
            return ops


def machine_fingerprint() -> dict:
    import numpy
    import scipy

    from repro.core.kernels import numba_available

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_available(),
        "commit": commit,
    }


def reset_peak_rss() -> bool:
    """Restart this process's resident-set high-water mark (Linux
    ``clear_refs``); False where the kernel does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    q = 1 - 10 / n
    return {"q": round(q, 3), "value": sorted(samples)[int(q * n) - 1]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide graph sizes and device memory (smoke tests)")
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    wl = None
    try:
        wl = WORKLOADS[args.workload](args.seed, shrink=args.shrink, workdir=workdir)
        _run(args, wl)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


def _run(args, wl) -> None:
    from perfbench.layers import install, layer_metrics, result_counters, unrecorded
    from perfbench.tracer import Ledger, Tracer

    checks = Checks(wl)
    tracer = setup_ledger = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    try:
        wl.prepare()
        setup_times = []
        while not enough_setups(setup_times, args.trace):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            setup_ledger = tracer.drain(Ledger())
    wl.setup_done()
    gc.collect()
    # peak_rss_mb covers the operations only: the set-ups' partitions and
    # superseded engines are freed by now
    peak_rss_reset = reset_peak_rss()
    run_operation(wl, wl.specs()[0], checks, timed=False)  # warm-up

    budget = args.seconds / 2 if args.trace else args.seconds
    ops = measure(wl, budget, checks)
    traced = []
    ledger = Ledger()
    counters = Counter()

    def traced_op(results):
        tracer.drain(ledger)
        counters.update(result_counters(results))

    if args.trace:
        install(tracer)
        try:
            traced = measure(wl, budget, checks, on_op=traced_op)
        finally:
            tracer.unwrap_all()
            tracer.drain(ledger)
    peak_mb = peak_rss_mb()

    failed = sum(op.failed for op in ops + traced) + checks.oracle()
    attempted = wl.queries * len(ops + traced)
    walls = [op.wall for op in ops]
    # first occurrence per distinct operation: deterministic per seed
    sims, h2d = {}, {}
    for op in ops:
        sims.setdefault(op.spec, op.sim_s)
        h2d.setdefault(op.spec, op.h2d_bytes)
    if args.trace:
        metrics = {
            name: _metric(value, "s" if name.endswith(("_s", ".s")) else
                          "MB" if name.endswith("_mb") else
                          "ratio" if name.endswith("_ratio") else "count")
            for name, value in layer_metrics(
                setup_ledger, ledger, counters, len(traced)).items()
        }
        traced_walls = [op.wall for op in traced]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        reconcile = abs(ledger.main_ns / 1e9 - sum(traced_walls)) / sum(traced_walls)
        if reconcile > RECONCILE_TOLERANCE:
            checks.problems.append(f"layer self times miss {reconcile:.2%} of the "
                                   "traced operations' wall time")
        if tracer.missing:
            checks.problems.append(f"methods to trace not found: {sorted(set(tracer.missing))}")
        silent = unrecorded(wl.name, setup_ledger, ledger)
        if silent:
            checks.problems.append(f"layers that recorded no time: {silent}")
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
        metrics["trace.reconcile_err"] = _metric(reconcile, "ratio")
    else:
        metrics = {
            "solve_s": _metric(statistics.median(walls), "s"),
            "queries_per_s": _metric(wl.queries * len(ops) / sum(walls), "1/s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "sim_s": _metric(statistics.median(sims.values()), "s"),
            "h2d_mb": _metric(statistics.median(h2d.values()) / 1e6, "MB"),
            "correct_frac": _metric(1 - failed / attempted, "ratio"),
        }
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_fingerprint(),
        "executed": checks.executed,
        "operations": len(ops) + len(traced),
        "solve_s_tail": _tail(walls),
        "setup_samples_s": setup_times,
        "failed_frac": failed / attempted,
        "peak_rss_scope": "operations" if peak_rss_reset else "process",
        "problems": checks.problems[:20],
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": failed == 0 and not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
