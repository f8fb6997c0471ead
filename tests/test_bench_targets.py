"""Every function the benchmark's tracer wraps still exists in the library.

``bench/tracing.py`` names its targets as (owner, attribute) pairs, and a
deleted or renamed target only fails once a benchmark runs with
``--trace 1``.  This test reads that table; it changes nothing under
``bench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer, owner, attr", [t[:3] for t in _targets()])
def test_traced_name_resolves(layer, owner, attr):
    if isinstance(owner, type):  # a method, patched in the class dict
        raw = owner.__dict__.get(attr)
        target = getattr(raw, "__func__", raw)
    else:
        target = getattr(importlib.import_module(owner), attr, None)
    assert callable(target), f"{layer}: {owner}.{attr} is gone"
