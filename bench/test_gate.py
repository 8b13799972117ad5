"""Self-tests of the benchmark: its correctness gate can fail, and tracing leaves no trace.

    python3 -m pytest bench/test_gate.py -q
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run
import worker  # puts the package sources on sys.path
import workloads
from tracer import Tracer, patched_bindings

import thetawell as tw
from thetawell import verification
from thetawell.series import build_table

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _failed_frac(workload) -> float:
    tally = worker.Tally(workload)
    tally.judge(workload.run_pass())
    return tally.failed / tally.attempted


def test_cli_grids_pass_clean(tmp_path):
    assert _failed_frac(workloads.CliGrids(3, workloads.NoTrace(), str(tmp_path))) == 0.0


def test_corrupted_cli_output_fails(tmp_path):
    wl = workloads.CliGrids(3, workloads.NoTrace(), str(tmp_path))
    outcomes = wl.run_pass()
    path = wl.paths["density"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-10])  # ten rows lost
    tally = worker.Tally(wl)
    tally.judge(outcomes)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert "density" in tally.notes[0]


def test_corrupted_cli_value_fails():
    # shift every value of a density table: whichever rows the seed picks are off
    text = (
        "# thetawell density\nx,t,value,tag\n"
        + "".join(f"{x!r},0.0,{tw.density(x, 0.0, tw.QuantumState(1, 0.1)) + 1e-6!r},finite\n"
                  for x in np.linspace(0.0, 1.0, 128 * 32).tolist())
    )
    problem = workloads.cli_output_problem("density", text, np.random.default_rng(0))
    assert problem is not None and "|psi|^2" in problem


def test_mismatched_oracle_fails(tmp_path, monkeypatch):
    real = workloads.psi_theta_route
    monkeypatch.setattr(workloads, "psi_theta_route", lambda x, t, s: real(x, t, s) * (1 + 1e-6))
    assert _failed_frac(workloads.CliGrids(3, workloads.NoTrace(), str(tmp_path))) > 0
    assert _failed_frac(workloads.BetaLadder(3, workloads.NoTrace(), str(tmp_path))) > 0


def _registry_stub(monkeypatch, failing: str, outcome):
    def run_check(name, *args, **kwargs):
        if name == failing:
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return verification.CheckResult(name, True, 0.0, 1.0, "stub")

    monkeypatch.setattr(verification, "run_check", run_check)


def test_failing_check_result_counts_as_failed(tmp_path, monkeypatch):
    bad = verification.CheckResult("entropy", False, 1.0, 1e-4, "stub failure")
    _registry_stub(monkeypatch, "entropy", bad)
    tally = worker.Tally(workloads.VerifyRegistry(0, workloads.NoTrace(), str(tmp_path)))
    tally.judge(tally.workload.run_pass())
    assert (tally.attempted, tally.failed) == (len(verification.CHECK_NAMES), 1)


def test_raising_check_counts_as_failed(tmp_path, monkeypatch):
    _registry_stub(monkeypatch, "continuity", ValueError("boom"))
    assert _failed_frac(workloads.VerifyRegistry(0, workloads.NoTrace(), str(tmp_path))) > 0


def test_tracer_wraps_every_binding_and_restores_them():
    assert patched_bindings() == []
    tracer = Tracer()
    tracer.install()
    try:
        patched = patched_bindings()
        for binding in ("thetawell.psi", "thetawell.wavefunction.psi", "thetawell.verification.psi",
                        "thetawell.series.cutoff_for", "thetawell.cli.density"):
            assert binding in patched
        state = tw.QuantumState(1, 0.1)
        tw.density(np.linspace(0.0, 1.0, 7), 0.0, state)
        stats = tracer.collect()
    finally:
        tracer.remove()
    assert patched_bindings() == []
    assert stats.calls["density.density"] == 1
    assert stats.calls["series.folded_sum"] == 1
    assert stats.term_points["series.folded_sum"] == build_table(state).w.size * 7
    assert stats.self_s["density.density"] <= stats.total_s["density.density"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    stats = Tracer().collect()
    names = set(worker.layer_metrics([stats], workloads.cost_counts())) | {"trace_overhead"}
    for command, _ in workloads.CLI_COMMANDS:
        assert f"cli.{command}.bytes" in names
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES) == {w["name"] for w in spec["workloads"]}


def test_speed_clock_rescales_spans_by_the_probe(monkeypatch):
    monkeypatch.setattr(worker, "host_probe", lambda: 2.0 * worker.PROBE_NOMINAL_S)
    clock = worker.SpeedClock()
    with clock.span("cli.density"):
        pass
    raw, scaled = clock.collect()
    assert scaled == pytest.approx(raw / 2.0, rel=1e-12)
    assert clock.collect() == (0, 0)
