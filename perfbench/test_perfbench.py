"""Tests of the benchmark itself: determinism, tracing, output format.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest perfbench -q

Each check starts the benchmark's own scripts in fresh interpreters
on the workloads' deterministic prefixes; the file takes about four
minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def child(workload: str, *extra: str, mode: str = "prefix") -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "child.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--mode",
            mode,
            *extra,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        check=True,
        env=dict(os.environ, PYTHONHASHSEED="3"),
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_agree_on_deterministic_metrics(workload):
    first, second = child(workload), child(workload)
    assert first["failed"] == second["failed"] == 0, first["failures"]
    assert first["failed_frac"] == second["failed_frac"] == 0.0
    # sim_*, messages/transfer per query, chase rounds and inferred
    # triples, runtime virtual counters: all pure functions of the seed.
    assert first["deterministic"] == second["deterministic"]
    assert first["deterministic"]["prefix_ops"] == first["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_time_and_exports_a_valid_trace(workload):
    traced = child(workload, "--trace")
    ledger = traced["ledger"]
    assert traced["failed"] == 0, traced["failures"]
    assert ledger["obs.trace_valid"] == 1, traced["trace_problems"]
    assert ledger["obs.trace_spans"] > 0
    assert ledger["unattributed_frac"] <= 0.10
    assert (ROOT / traced["trace_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unchecked_replay_repeats_the_checked_pass(workload):
    # The replays time the same operations as the checked pass and give
    # peak_rss_mb; with the same seed (and hash seed) every operation
    # must run again and return the same row counts.
    checked = child(workload)
    replay = child(workload, "--blocks", str(checked["blocks"]), mode="replay")
    assert replay["failed"] == 0, replay["failures"]
    assert replay["kinds"] == checked["kinds"]
    assert replay["digests"] == checked["digests"]
    assert replay["peak_rss_mb"] > 0


def test_federated_workload_reports_deterministic_network_metrics():
    det = child("fed_mixed")["deterministic"]
    # At least ten samples lie beyond the reported p95.
    assert det["sim_samples"] >= 200
    assert det["sim_p95_ms"] >= det["sim_p50_ms"] > 0
    assert det["messages_per_query"] > 0
    assert det["transfer_units_per_query"] > 0


def test_run_prints_the_result_line_last():
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "fed_tenants",
            "--seed",
            "5",
            "--seconds",
            "1",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_run_fails_without_the_program_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, bare / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [
                sys.executable,
                "perfbench/run.py",
                "--workload",
                "fed_mixed",
                "--seed",
                "1",
            ],
            cwd=bare,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

