"""The public surface: every exported name resolves, and star imports work."""

import importlib
import pkgutil

import pytest

import thetawell

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
