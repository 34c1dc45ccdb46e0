"""The public names: every name an ``__all__`` lists resolves, and none is
listed twice."""

import importlib
import pkgutil

import pytest

import stochprod as sp

MODULES = [sp] + [importlib.import_module(f"stochprod.{info.name}")
                  for info in pkgutil.iter_modules(sp.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_listed_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []
