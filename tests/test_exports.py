import importlib
import pkgutil

import pytest

import loopspec

MODULES = ["loopspec"] + [
    f"loopspec.{info.name}" for info in pkgutil.iter_modules(loopspec.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves_once(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(mod, n)] == []
