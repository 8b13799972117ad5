"""Runs one workload in this process and prints its figures as one JSON line.

Started by ``run.py`` with the thread settings already in the environment, so
the process is single-threaded from its first numpy import.  With
``--first-call`` it only makes the workload's first call (one set-up launch,
timed by the parent from launch to exit) and then reports a host probe, so
the parent can rescale that launch like the passes.  Otherwise, within a window of
``--seconds``, it runs a first pass that warms the caches and is checked
against the independent routes, then timed passes while the next one is
expected to end inside the window; with ``--trace 1`` the window is split
between untraced passes and passes under the tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from tracer import TRACED, Tracer, patched_bindings  # noqa: E402
from workloads import (  # noqa: E402
    CLI_COMMANDS,
    FOLDED_RUNGS,
    RUNGS,
    WORKLOADS,
    NoTrace,
    cost_counts,
    same,
)
from thetawell.verification import CHECK_NAMES  # noqa: E402

MAX_FAILURE_NOTES = 5
MIN_PASSES = 2

_PROBE_ARRAY = np.linspace(0.0, 1.0, 50_000)
PROBE_NOMINAL_S = 0.011  # host_probe's median where the benchmark was written


class Tally:
    """Operations attempted and failed, judged against the first pass."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: dict | None = None
        self.bad: dict = {}

    def _fail(self, key, why: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{key}: {why}")

    def judge(self, outcomes: list) -> None:
        outcomes = self.workload.settle(outcomes)
        if self.reference is None:
            self.reference = dict(outcomes)
            self.bad = self.workload.oracle(outcomes)
        for key, outcome in outcomes:
            self.attempted += 1
            if isinstance(outcome, Exception):
                self._fail(key, f"raised {outcome!r}")
            elif key in self.bad:
                self._fail(key, self.bad[key])
            elif not same(outcome, self.reference.get(key)):
                self._fail(key, "output differs from the first pass")


def host_probe() -> float:
    """Wall time of a fixed mix of interpreter and numpy work, about 10 ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(5):
        np.cos(_PROBE_ARRAY * 3.0)
    return time.perf_counter() - t0


class SpeedClock(NoTrace):
    """Untraced stand-in for the tracer: times each benchmark span against a host probe.

    The machine the benchmark was written on changes speed by up to 1.6x for
    tens of seconds at a time, which no window a run can afford averages out.
    So each span (a check, a command, a rung) starts right after ``host_probe``
    and its time is rescaled by PROBE_NOMINAL_S / probe time: a pass timed in
    a slow period and one timed in a fast period read alike.  The probe runs no
    package code, so a change to the package moves only the span times.
    """

    def __init__(self) -> None:
        self._spans: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        probe = host_probe()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._spans.append((time.perf_counter() - t0, probe))

    def collect(self) -> tuple[float, float]:
        """(raw seconds, seconds at the nominal probe speed) of the spans since the last call."""
        spans, self._spans = self._spans, []
        return sum(s for s, _ in spans), sum(s * PROBE_NOMINAL_S / p for s, p in spans)


def timed_passes(workload, tally: Tally, deadline: float) -> tuple[list, list]:
    """Passes while the next one is expected to end by ``deadline`` (at least MIN_PASSES).

    Returns each pass's wall time and what ``workload.tracer.collect()`` gave for it.
    """
    walls, records = [], []
    while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(walls) <= deadline:
        t0 = time.perf_counter()
        outcomes = workload.run_pass()
        walls.append(time.perf_counter() - t0)
        records.append(workload.tracer.collect())
        tally.judge(outcomes)
    return walls, records


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(stats: list, counts: dict) -> dict:
    """Per-layer metrics: counts from the last traced pass, times as medians over passes."""
    last = stats[-1]

    def med(attr: str, key) -> float:
        return statistics.median(getattr(s, attr).get(key, 0.0) for s in stats)

    m: dict[str, tuple[float, str]] = {}
    for name, kinds in TRACED.items():
        calls = last.calls.get(name, 0)
        for kind in kinds:
            if kind == "calls":
                m[f"{name}.calls"] = (calls, "count")
            elif kind == "distinct_ratio":
                m[f"{name}.distinct_ratio"] = (_ratio(last.distinct.get(name, 0), calls), "ratio")
            else:
                m[f"{name}.{kind}"] = (med(kind, name), "s")

    def per_call(name: str, unit: str, scale: float, rungs) -> None:
        total, calls = med("total_s", name), last.calls.get(name, 0)
        m[f"{name}.{unit}_per_call"] = (_ratio(total, calls, scale), unit)
        for rung in rungs:
            key = (name, rung)
            m[f"{name}.{unit}_per_call.{rung}"] = (
                _ratio(med("total_rung", key), last.calls_rung.get(key, 0), scale), unit)

    all_rungs = [label for label, *_ in RUNGS]
    per_call("wavefunction.psi", "us", 1e6, all_rungs)
    per_call("series.comb_rows", "ms", 1e3, FOLDED_RUNGS)
    per_call("series.folded_sum", "us", 1e6, ())

    fs = "series.folded_sum"
    m[f"{fs}.term_points"] = (last.term_points.get(fs, 0), "count")
    m[f"{fs}.ns_per_term_point"] = (_ratio(med("self_s", fs), last.term_points.get(fs, 0), 1e9), "ns")
    for rung in FOLDED_RUNGS:
        tp = last.term_points_rung.get((fs, rung), 0)
        m[f"{fs}.term_points.{rung}"] = (tp, "count")
        m[f"{fs}.ns_per_term_point.{rung}"] = (_ratio(med("self_rung", (fs, rung)), tp, 1e9), "ns")

    for check in CHECK_NAMES:
        m[f"verification.{check}.s"] = (med("total_s", f"verification.{check}"), "s")
    for command, _ in CLI_COMMANDS:
        span = f"cli.{command}"
        m[f"{span}.s"] = (med("total_s", span), "s")
        m[f"{span}.self_s"] = (med("self_s", span), "s")
        m[f"{span}.bytes"] = (counts.get(f"{span}.bytes", 0), "bytes")
    for label, *_ in RUNGS:
        m[f"rung.{label}.s"] = (med("total_s", f"rung.{label}"), "s")
    for name, value in counts.items():
        unit = "bytes" if name.endswith(".bytes") else "count"
        m[name] = (value, unit)
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--first-call", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, NoTrace(), args.workdir)
    if args.first_call:
        workload.first_call()
        probe = host_probe()
        print(json.dumps({"probe_s": probe, "scale": PROBE_NOMINAL_S / probe}))
        return 0

    if patched_bindings():
        raise RuntimeError(f"bindings patched before the run: {patched_bindings()}")
    # the window opens before the warm pass, which fills the caches and feeds
    # the oracle; with tracing, the second half of the window is traced
    window = time.perf_counter()
    budget = args.seconds / 2.0 if args.trace else args.seconds
    workload.tracer = SpeedClock()
    tally = Tally(workload)
    tally.judge(workload.run_pass())
    workload.tracer.collect()
    _, timed = timed_passes(workload, tally, window + budget)
    pass_raw_s = [raw for raw, _ in timed]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if patched_bindings():
        raise RuntimeError(f"untraced run left bindings patched: {patched_bindings()}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": [scaled for _, scaled in timed],
        "pass_raw_s": pass_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if args.trace:
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            traced_s, stats = timed_passes(workload, tally, time.perf_counter() + budget)
        finally:
            tracer.remove()
        if patched_bindings():
            raise RuntimeError(f"tracer left bindings patched: {patched_bindings()}")
        counts = {**cost_counts(), **workload.layer_counts()}
        layers = layer_metrics(stats, counts)
        layers["trace_overhead"] = (statistics.median(traced_s) / statistics.median(pass_raw_s), "ratio")
        report["traced_pass_s"] = traced_s
        report["counts_repeat"] = all(s.calls == stats[0].calls for s in stats)
        report["layers"] = layers

    report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.notes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
