"""The benchmark's trace mode over the verification registry, run from the test suite.

``bench/tracer.py`` rebinds the package's functions from outside; a change in
what the package imports, or in the signatures the tracer binds, would
otherwise surface only in a ``--trace 1`` benchmark run.  ``bench/`` goes on
``sys.path`` for this test only; none of its files is edited.
"""

import importlib
from pathlib import Path

from thetawell import verification

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_verify_registry_pass_is_clean(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer_mod = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        outcomes = workloads.VerifyRegistry(7, tracer, str(tmp_path)).run_pass()
        stats = tracer.collect()
    finally:
        tracer.remove()
    assert tracer_mod.patched_bindings() == []
    assert [name for name, _ in outcomes] == list(verification.CHECK_NAMES)
    raised = [name for name, r in outcomes if not isinstance(r, verification.CheckResult)]
    assert raised == []
    assert [name for name, r in outcomes if not r.passed] == []
    # every comb oracle reads comb_rows; the bench-only names are never reached
    assert stats.calls["series.comb_rows"] > 0
    assert stats.calls["series.folded_sum"] == 0
    assert stats.calls["series.build_table"] == 0
