"""Smoke test of the benchmark: the cheapest op of each workload, untraced
and traced, must succeed and report every metric BENCHMARK.json names, with
its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smallest_item_reports_every_metric(workload, trace):
    detail, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    env = detail["environment"]
    for key in ("cpu", "nproc", "python", "numpy", "blas", "git_sha", "seed", "trace"):
        assert key in env
    assert env["trace"] == bool(trace) and env["seed"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".json"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-mixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
