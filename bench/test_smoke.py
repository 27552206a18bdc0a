"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced and once traced with ``--tiny`` inputs.
The result line must carry every metric BENCHMARK.json names, with its
unit, and no operation may fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PHASE_NAMES = {
    "grid": ("experiment_1d_s", "experiment_2d_s"),
    "separation": ("certify_s", "distance_s"),
    "codec": ("encode_s", "decode_s"),
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(PHASE_NAMES))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().split("\n")
    detail, result = json.loads(detail_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    named = {k: v["unit"] for k, v in detail["metrics"].items()}
    first, second = PHASE_NAMES[workload]
    assert named == {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
                     first: "s", second: "s"}
    assert detail["metrics"]["error_rate"]["value"] == 0.0
    assert detail["env"]["blas_threads"] <= detail["env"]["nproc"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    proc = _run(str(tmp_path), "--workload", "codec", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
