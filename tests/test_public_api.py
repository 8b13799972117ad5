"""The public surface: every exported name resolves, star imports work, and the docs name no stale private names."""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import thetawell
from thetawell import series
from thetawell.wavefunction import QuantumState

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(thetawell.__path__))


def test_package_all_resolves_and_star_imports():
    assert all(hasattr(thetawell, name) for name in thetawell.__all__)
    namespace = {}
    exec("from thetawell import *", namespace)
    assert set(thetawell.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves_and_star_imports(name):
    module = importlib.import_module(f"thetawell.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from thetawell.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


ROOT = Path(__file__).resolve().parents[1]

# the benchmark reaches into the package from its own files; a rename there
# would otherwise surface only when the benchmark runs
BENCH = ROOT / "bench"


def _traced_names() -> list[str]:
    """The "module.function" keys of ``TRACED`` in bench/tracer.py, read from the source."""
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py assigns no TRACED")


def test_bench_traced_bindings_resolve():
    missing = []
    for name in _traced_names():
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"thetawell.{module}"), function, None)):
            missing.append(name)
    assert missing == []


def test_bench_imports_resolve():
    """Every name bench/ imports from thetawell, and every ``tw.<name>`` it reads, exists."""
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("thetawell"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"  # an attribute or a submodule
                    if not hasattr(module, alias.name) and importlib.util.find_spec(name) is None:
                        missing.append(f"{path.name}: {name}")
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tw":
                if not hasattr(thetawell, node.attr):
                    missing.append(f"{path.name}: tw.{node.attr}")
    assert missing == []


def test_bench_reads_series_fields():
    """The TermTable and CombRows fields bench/workloads.py and bench/test_gate.py read."""
    state = QuantumState(1, 0.1)
    table = series.build_table(state)
    rows = series.comb_rows(0.3, 0.0, state)
    missing = []
    for obj, names in (
        (table, ("sigma", "iota", "w", "m_max", "norm")),
        (rows, ("sigmas", "plus", "minus", "norm")),
    ):
        missing += [f"{type(obj).__name__}.{name}" for name in names if not hasattr(obj, name)]
    assert missing == []


# a backticked private name, `_name` or ``_name``, alone or after a module
# (`cli._table_text`); what follows the name ([angle], a call) is ignored
PRIVATE_NAME = re.compile(r"`(?:(\w+)\.)?(_\w*)")


def _stale_private_names(paths) -> list[str]:
    """Backticked private names in ``paths`` that no thetawell module (or the one named) has."""
    modules = {name: importlib.import_module(f"thetawell.{name}") for name in SUBMODULES}
    modules["thetawell"] = thetawell
    stale = []
    for path in paths:
        for owner, name in PRIVATE_NAME.findall(path.read_text(encoding="utf-8")):
            if owner and owner not in modules:  # float.__repr__ and the like
                continue
            scope = [modules[owner]] if owner else modules.values()
            if not any(hasattr(module, name) for module in scope):
                stale.append(f"{path.name}: {owner + '.' if owner else ''}{name}")
    return stale


def test_docs_name_no_stale_private_names():
    """Every backticked ``_name`` in README.md and the package sources is an attribute of a thetawell module."""
    paths = [ROOT / "README.md", *sorted((ROOT / "src" / "thetawell").glob("*.py"))]
    assert _stale_private_names(paths) == []


def test_stale_private_names_are_found(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("`_trig` and ``_kept_table``, `cli._fmt`; `_no_such_name`, ``wavefunction._fmt``, `float.__repr__`")
    assert _stale_private_names([doc]) == ["doc.md: _no_such_name", "doc.md: wavefunction._fmt"]
