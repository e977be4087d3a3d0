"""End-to-end benchmark of the RDF peer system: one workload per call.

Usage, from the repository root::

    python3 perfbench/run.py --workload local_rw --seed 1 --trace 0

The workloads and the metrics each mode reports are the ones
``BENCHMARK.json`` lists (see ``perfbench/README.md``).  Every
measurement runs in a fresh interpreter (``perfbench/child.py``), one
client, closed loop.

* ``--trace 0`` runs the workload in two passes over the same
  operation stream: a fixed number of whole blocks, sized to
  ``--seconds`` at the reference host speed and at least the
  deterministic prefix.  The first pass checks every result against
  the oracle; the second replays its blocks unchecked, compares result
  row counts with it, and gives ``peak_rss_mb`` at the end of the
  prefix.  Each operation counts with its faster pass.  The workload
  is set up three more times; every one of these is a fresh
  interpreter with the seed as hash seed, and ``setup_s`` is the
  median of the five set-ups.  Times are scaled to the reference host
  speed (``child.HostSpeed``).
* ``--trace 1`` runs the deterministic prefix twice, untraced and then
  with every layer entry point wrapped, and reports the per-layer
  ledger; the traced run's spans are exported to ``perfbench/out/``.

A table of every metric is printed first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any operation failed or
disagreed with its oracle, and 2 when a run could not complete.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from child import timing_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock budget for the whole call, below the 180 s a run may take.
BUDGET_S = 170.0

#: Passes over one operation stream, each in a fresh interpreter: the
#: first checks every result against the oracle, the second replays
#: the same blocks unchecked.  The checked pass is sized to take
#: ``--seconds`` over ``PASSES`` at the reference host speed.
PASSES = 2


def spec():
    """Workload names and metric units, as ``BENCHMARK.json`` lists them."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())

    def units(group: str) -> Dict[str, str]:
        return {m["name"]: m["unit"] for m in document[group]}

    names = [w["name"] for w in document["workloads"]]
    return names, units("end_to_end"), units("per_layer")


class RunError(Exception):
    """A child run crashed, timed out or printed no result."""


@dataclass
class Report:
    """What one call measured: metric values plus the result counts."""

    values: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    failures: List[str]
    notes: Dict[str, str] = field(default_factory=dict)


def child(args, deadline: float, *extra: str) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON line."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time budget exhausted")
    try:
        # run() kills the child on timeout and waits for it to end.
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            env=dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32)),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{' '.join(extra)}: timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{' '.join(extra)}: exit code {done.returncode}")
    return json.loads(lines[-1])


def setup_only(args, deadline: float) -> float:
    return child(args, deadline, "--mode", "setup")["setup_s"]


def end_to_end(args, deadline: float, units: Dict[str, str]) -> Report:
    # Set-ups alone before and after the passes, so that the median of
    # the five ignores a short slow spell of the host.
    setups = [setup_only(args, deadline), setup_only(args, deadline)]
    checked = child(
        args,
        deadline,
        "--mode",
        "run",
        "--seconds",
        str(args.seconds / PASSES),
    )
    passes = [checked]
    for _ in range(PASSES - 1):
        passes.append(
            child(
                args,
                deadline,
                "--mode",
                "replay",
                "--blocks",
                str(checked["blocks"]),
            )
        )
    setups += [p["setup_s"] for p in passes]
    setups.append(setup_only(args, deadline))
    failed, failures = checked["failed"], list(checked["failures"])
    for number, replay in enumerate(passes[1:], 2):
        failed += replay["failed"]
        failures += [f"pass {number}: {f}" for f in replay["failures"]]
        if replay["kinds"] != checked["kinds"]:
            raise RunError(f"pass {number} ran another operation stream")
        differ = [
            i
            for i, (a, b) in enumerate(
                zip(checked["digests"], replay["digests"])
            )
            if a != b
        ]
        failed += len(differ)
        failures += [
            f"pass {number}: operation {i} returned another row count"
            for i in differ
        ]
    # Each operation counts with its fastest pass: the passes do
    # identical work, so what one took more is the host's interference.
    best = [min(times) for times in zip(*(p["seconds"] for p in passes))]
    timing = timing_summary(checked["kinds"], best)
    values = {
        **timing,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            p["peak_rss_mb"] for p in passes[1:]
        ),
    }
    specific = {
        "write_p50_ms": timing["write_p50_ms"],
        "write_tail_ms": timing["write_tail_ms"],
        "failed_frac": checked["failed_frac"],
        "repeat_text_frac": checked["repeat_text_frac"],
        **checked["deterministic"],
    }
    notes = {
        "samples": (
            f"{timing['query_samples']} reads, "
            f"{timing['write_samples']} writes per pass, "
            f"query tail at p{timing['query_tail_pct']:.1f}"
        ),
        "op_s per pass (wall, scaled)": ", ".join(
            f"{p['wall_s']:.3f}/{sum(p['seconds']):.3f}" for p in passes
        ),
        "setups_s": ", ".join(f"{s:.3f}" for s in setups),
        "workload-specific": ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(specific.items())
        ),
    }
    attempted = sum(p["attempted"] for p in passes)
    return Report(values, units, attempted, failed, failures, notes)


def per_layer(args, deadline: float, units: Dict[str, str]) -> Report:
    plain = child(args, deadline, "--mode", "prefix")
    traced = child(args, deadline, "--mode", "prefix", "--trace")
    values = {**plain, **plain["deterministic"], **traced["ledger"]}
    values["obs.trace_overhead_frac"] = (
        traced["op_s_total"] / plain["op_s_total"] - 1.0
    )
    problems = traced["trace_problems"] or "none"
    notes = {
        "trace": (
            f"{traced['trace_file']} ({values['obs.trace_spans']} spans, "
            f"problems: {problems})"
        ),
    }
    for layer, row in traced["layers"].items():
        notes[f"layer {layer}"] = (
            f"calls={row['calls']} total_s={row['total_s']:.4f} "
            f"self_s={row['self_s']:.4f}"
        )
    return Report(
        values,
        units,
        plain["attempted"] + traced["attempted"],
        plain["failed"] + traced["failed"],
        plain["failures"] + traced["failures"],
        notes,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the RDF peer system."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    workloads, end_to_end_units, per_layer_units = spec()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    # Write stale bytecode before any set-up is timed.  Where the
    # interpreter may not write it (PYTHONDONTWRITEBYTECODE), every
    # set-up would otherwise compile the whole library from source.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=2)
    try:
        if args.trace:
            report = per_layer(args, deadline, per_layer_units)
        else:
            report = end_to_end(args, deadline, end_to_end_units)
        missing = sorted(set(report.units) - set(report.values))
        if missing:
            raise RunError(f"no value for {', '.join(missing)}")
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, text in report.notes.items():
        print(f"#   {key}: {text}")
    for name, unit in report.units.items():
        print(f"{name:34s} {report.values[name]:>16.6g} {unit}")
    for failure in report.failures:
        print(f"FAILED {failure}")
    correct = report.failed == 0
    result = {
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.values[name], "unit": unit}
            for name, unit in report.units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
