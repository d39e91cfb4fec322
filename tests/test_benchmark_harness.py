"""Smoke test of the benchmark harness: each declared workload runs traced,
passes its check, and reports every per-layer metric the benchmark lists."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_traced_and_correct(workload):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:],
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(result["metrics"])
