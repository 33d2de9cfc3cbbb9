"""Smoke test of the benchmark: run `python3 -m pytest -q perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_repeats_counts(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert "op_fail_ratio" in report["end_to_end"]
    assert report["self_check"]["counts"] > 0
    assert report["self_check"]["differing"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify-cli", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
