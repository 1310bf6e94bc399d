"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/smoke.py

Runs a tiny instance of every workload, untraced and traced, and asserts
that no operation failed and that every metric BENCHMARK.json names is
reported with its unit.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, results: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--results-dir", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0, proc.stderr
    assert result["correct"] is True
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]
    if trace:
        assert all(isinstance(m["value"], int) for m in result["metrics"].values()
                   if m["unit"] == "count")
        spans = (tmp_path / f"{workload}.seed7.trace1.spans.jsonl").read_text().splitlines()
        assert {"name", "start", "end", "parent", "op"} == set(json.loads(spans[0]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".work-*"))
    proc = _run(tmp_path, WORKLOADS[0], 0, tmp_path / "results")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
