"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload untraced and traced and checks that each metric named
in BENCHMARK.json is printed with its unit and that no output check fails.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()[:-1]}
    assert {k: printed.get(k) for k in expected} == expected
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0
        layers = result["metrics"]
        parts = ["cli.self_s", "montecarlo.self_s", "montecarlo.csv_write_s",
                 "engine.self_s", "criteria.self_s", "simplex.self_s", "bounds.self_s",
                 "trace.uncovered_s"]
        assert sum(layers[p]["value"] for p in parts) == pytest.approx(
            layers["trace.wall_s"]["value"], rel=1e-9)


def test_fails_without_package_source():
    """A checkout holding only the benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload", "tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    assert proc.returncode != 0
    assert proc.stdout == ""
