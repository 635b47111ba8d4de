"""Smoke-sized self-check of the benchmark and its ledger.

Run from the repository root::

    python3 -m pytest perfbench -q

The repository's own suite does not collect this file (its
``testpaths`` is ``tests``); each case runs ``perfbench/run.py`` for a
few seconds per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload run.py offers: BENCHMARK.json's, and single_open, which
# it leaves out (see README.md) but which still runs by name.
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["single_open"]
SECONDS = 3
SEED = 7

# The figures each workload prints by name, with their units.
DETAIL = {
    "gateway_batch": {
        "setup_s": "s", "failed_share": "ratio", "batch_req_per_s": "req/s",
        "batch_frame_p50_ms": "ms", "batch_frame_p99_ms": "ms",
    },
    "single_open": {
        "setup_s": "s", "failed_share": "ratio",
        "single_p50_ms.r500": "ms", "single_p50_ms.r1000": "ms",
        "single_p50_ms.r2000": "ms", "single_p99_ms.r1000": "ms",
        "single_max_rate": "req/s",
    },
    "http_features": {
        "setup_s": "s", "failed_share": "ratio", "http_req_per_s": "req/s",
        "http_p50_ms": "ms", "http_p99_ms": "ms",
    },
    "recover_live": {
        "setup_s": "s", "failed_share": "ratio",
        "recover_stream_qps": "queries/s", "recover_read_p50_ms": "ms",
        "recovered_accuracy": "ratio", "clean_accuracy": "ratio",
        "attacked_accuracy": "ratio",
    },
}
# The CPU-cost figures behind the bounded ``cpu_us_per_op``: plain, and
# scaled to the reference host speed.
COSTS = {
    "gateway_batch": ("batch_cpu_us_per_req", "batch_ref_cpu_us_per_req"),
    "single_open": ("single_cpu_us_per_req", "single_cpu_us_per_req.r500"),
    "http_features": ("http_cpu_us_per_req", "http_ref_cpu_us_per_req"),
    "recover_live": ("recover_cpu_us_per_query", "recover_ref_cpu_us_per_query"),
}
LEDGER_TOLERANCE = 0.10


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_the_sixteen_end_to_end_figures_are_all_printed():
    named = {n for figures in DETAIL.values() for n in figures}
    assert len(named - {"clean_accuracy", "attacked_accuracy"}) == 16


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    result = _last_json(_run(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    saved = json.loads(
        (ROOT / ".bench_build" / "perfbench"
         / f"result-{workload}-seed{SEED}-trace0.json").read_text()
    )
    detail = {name: unit for name, (value, unit) in saved["detail"].items()}
    for name, unit in DETAIL[workload].items():
        assert detail.get(name) == unit, name
    for name in COSTS[workload]:
        assert detail.get(name) == "us", name
        assert saved["detail"][name][0] > 0, name
    assert saved["detail"]["failed_share"][0] == 0
    assert saved["host"]["cpus"] >= 1 and saved["host"]["kernel_backend"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_ledger_adds_up(workload):
    result = _last_json(_run(workload, 1))
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    share = result["metrics"]["ledger.sum_share"]["value"]
    assert abs(share - 1.0) <= LEDGER_TOLERANCE, share


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
