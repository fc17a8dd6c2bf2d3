import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def _traced_names():
    """``(module, name)`` for every function the benchmark's tracer wraps."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced_names())
def test_every_traced_name_resolves(module, name):
    # The traced benchmark run looks each one up with getattr and fails on
    # a missing name.
    assert callable(getattr(importlib.import_module(f"loopspec.{module}"), name, None))
