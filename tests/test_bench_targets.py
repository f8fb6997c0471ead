"""What the benchmark reads from the library still exists and still agrees with it.

``bench/tracing.py`` names its targets as (owner, attribute) pairs, and a
deleted or renamed target only fails once a benchmark runs with
``--trace 1``.  ``bench/workloads.py`` gates kernel attention on its own
oracle, ``kernel_attention_ref``, which reads the parameters' fields, so a
field the oracle reads and the library drops only fails once a benchmark
runs.  The workloads call the library through module aliases
(``dg.kernel_attention``, ``O.run_two_stage``), so a dropped re-export also
only fails once a benchmark runs.  These tests load both files as they are;
they change nothing under ``bench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dualgrad.experiments import random_attention, random_sequence
from dualgrad.kernelmap import sample_feature_map
from dualgrad.rng import stream
from dualgrad.transformer import kernel_attention

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, owner, attr", [t[:3] for t in _load("tracing").TARGETS])
def test_traced_name_resolves(layer, owner, attr):
    if isinstance(owner, type):  # a method, patched in the class dict
        raw = owner.__dict__.get(attr)
        target = getattr(raw, "__func__", raw)
    else:
        target = getattr(importlib.import_module(owner), attr, None)
    assert callable(target), f"{layer}: {owner}.{attr} is gone"


def _aliased_reads(path):
    """(module, attribute) for each ``alias.attr`` read through ``import dualgrad... as alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname and alias.name.split(".")[0] == "dualgrad"
    }
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


_WORKLOAD_READS = _aliased_reads(_BENCH / "workloads.py")


def test_workloads_read_the_three_library_modules():
    assert {module for module, _ in _WORKLOAD_READS} == {
        "dualgrad", "dualgrad.experiments", "dualgrad.optimizer"
    }


@pytest.mark.parametrize("module, attr", _WORKLOAD_READS)
def test_workload_library_read_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr} is gone"


@pytest.mark.parametrize("d_o", [5, 8])  # an odd d_o keeps its last coordinate unrotated
def test_bench_oracle_agrees_with_kernel_attention(d_o):
    rng = stream(d_o, "bench-oracle")
    params = random_attention(rng, 6, d_o)
    seq = random_sequence(rng, 6, 10, 8, 2)
    fmap = sample_feature_map(d_o, 256, seed=d_o)
    pos = len(seq)
    want = kernel_attention(params, fmap, seq, pos)
    got = _load("workloads").kernel_attention_ref(params, fmap, seq.tokens, pos)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
