"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

It lives outside the package's ``tests/`` so the library's own suite is
unchanged; it runs in about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "failed_share", "peak_rss_mb"]


def bench(workload, trace, cwd=ROOT, check=True):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=check)


def test_one_command_prints_every_end_to_end_metric_with_its_unit():
    lines = bench("all", 0).stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    units["failed_share"] = "ratio"
    assert sorted(units) == sorted(E2E)
    for name, result in zip(WORKLOADS, results):
        start = next(i for i, line in enumerate(lines) if line.startswith(f"workload {name} "))
        shown = {}
        for line in lines[start + 1:]:
            if line.startswith("{"):
                break
            metric, value, unit = line.split()
            shown[metric] = (float(value), unit)
        for metric in E2E:
            assert shown[metric][1] == units[metric], (name, metric)
        assert shown["failed_share"][0] == 0.0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 110
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = (json.loads(bench(workload, 1).stdout.splitlines()[-1]) for _ in range(2))
    # a failed op here includes a traced output that differs from the untraced one
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "B"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    assert first["metrics"]["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    sys.path.insert(0, str(BENCH))
    import run

    run.import_library()
    from tracing import Tracer
    from workloads import WORKLOADS as CLASSES

    wl = CLASSES[workload](3, tiny=True)
    plain, _ = wl.run_unit(0, run.Clock(calibrated=True))
    tracer = Tracer()
    with tracer.patched():
        traced, _ = wl.run_unit(0, run.Clock(tracer=tracer))
    assert tracer.spans
    assert all(ok for _, _, ok, _ in plain + traced)
    assert [op[3] for op in plain] == [op[3] for op in traced]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("demo-search", 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
