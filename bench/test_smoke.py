"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that each workload, untraced and traced, prints every metric named
in BENCHMARK.json with its unit, that no op fails, that the layers' self
times plus the remainder add up to the op time, and that the benchmark
refuses to run where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
from tracing import LAYERS  # noqa: E402


def run_bench(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def results(workload: str, trace: int):
    proc = run_bench(ROOT, BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return report, result


def assert_metrics(metrics: dict, spec: list):
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    for v in metrics.values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    report, result = results(workload, 0)
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    e2e = report["end_to_end"]
    assert set(e2e) == set(result["metrics"]) | {"fail_frac"}
    assert e2e["fail_frac"] == {"value": 0.0, "unit": "1"}
    assert {"percentile", "samples", "samples_beyond"} <= set(e2e["latency_tail_s"])
    assert report["environment"]["seed"] == 7


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_per_layer_metrics(workload):
    report, result = results(workload, 1)
    metrics = result["metrics"]
    assert_metrics(metrics, SPEC["per_layer"])
    accounted = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    accounted += metrics["trace.remainder_s"]["value"]
    assert accounted == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)
    assert report["traced_fingerprint_matches"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, tmp_path / SPEC["command"][1], "design", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
