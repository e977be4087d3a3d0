"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measurement so that no
process-global state (the local plan cache, the default term
dictionary, the blank-node counter) leaks between workloads, runs or
set-ups.  Modes:

* ``setup`` — import the library and build the workload, then report
  the set-up time;
* ``run`` — set up, then run whole blocks of operations, closed-loop
  with one client, checking every result against the oracle: as many
  blocks as take ``--seconds`` at the reference host speed
  (``Workload.block_s``), and at least the deterministic prefix;
* ``replay`` — set up, then run exactly ``--blocks`` blocks of the
  same stream without the oracle; each result's fingerprint is
  reported, so ``run.py`` can compare it with the checked pass.  The
  peak resident memory at the end of the deterministic prefix is
  reported too: with no oracle state it is the program's own;
* ``prefix`` — set up, then run exactly the deterministic prefix; with
  ``--trace`` the layer entry points are wrapped (``ledger.py``) and
  the first operations' spans are exported as Chrome trace JSON.

The last line of standard output is one JSON object with the run's
summary.  Usage, from the repository root::

    python3 perfbench/child.py --workload fed_mixed --seed 1 --mode run
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: Operations of a traced run whose spans go into the exported trace.
EXPORT_OPS = 40

#: Engine phase spans (``repro.sparql.engine.execute``'s own tracer).
PHASES = ("parse", "normalise", "plan", "execute")


#: Data of the calibration step: a fixed list and dictionary of strings.
CALIBRATION_KEYS = [f"k{i}" for i in range(256)]
CALIBRATION_TABLE = {key: i for i, key in enumerate(CALIBRATION_KEYS)}

#: Seconds one calibration step takes on the reference host (2-vCPU
#: Intel Xeon VM at 2.0 GHz, Python 3.11) at its full speed.  Timings
#: are reported scaled to this speed.
REFERENCE_STEP_S = 0.0003

#: Wall seconds between two calibration readings during a run.
READ_EVERY_S = 0.25


def calibration_step() -> int:
    """A fixed piece of interpreter work: list indexing, dictionary
    lookups, integer arithmetic and branches, then building a list of
    small tuples, a dictionary of lists over it and a set of pairs.
    """
    keys, table, total = CALIBRATION_KEYS, CALIBRATION_TABLE, 0
    for i in range(1000):
        key = keys[i & 255]
        total += table[key] * 3 % 7
        if key in table:
            total ^= i
    rows = [(i, i * 7 % 101, i & 15) for i in range(600)]
    index: Dict[int, list] = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    pairs = {(row[0], row[2]) for row in rows}
    return total + len(index) + len(pairs)


def host_step_s(steps: int = 7) -> float:
    """Seconds per calibration step now: the median of ``steps``.

    The collector is off meanwhile: the step's garbage is freed by
    reference counting, and a collection would time the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(steps):
        began = time.perf_counter()
        calibration_step()
        times.append(time.perf_counter() - began)
    if enabled:
        gc.enable()
    return statistics.median(times)


class HostSpeed:
    """Scales wall seconds to the reference host's full speed.

    The speed of a shared virtual machine switches between a fast and
    a slow state about 1.6 times slower, within seconds, and drifts
    over minutes; a process's CPU time slows alike.  Program work slows
    by the same factor as the calibration step, so an interval is
    multiplied by ``REFERENCE_STEP_S`` over the mean calibration
    reading around it: the readings within ``REACH_S`` of it, the
    nearest one on either side, and those taken inside it.

    Between operations a reading is taken every ``READ_EVERY_S``.
    While :meth:`arm`-ed, an interval timer takes one every
    ``READ_EVERY_S`` inside the running operation too, so a long
    operation that outlasts a switch is scaled by the states it ran
    in; :meth:`disarm` returns the seconds those readings took, which
    the caller takes out of the operation's interval.
    """

    #: Reach of the window of readings around an interval.
    REACH_S = 0.5

    def __init__(self) -> None:
        self.times: List[float] = []
        self.steps: List[float] = []
        self.paused_s = 0.0
        self.read()

    def read(self) -> None:
        began = time.perf_counter()
        step = host_step_s()
        self.times.append((began + time.perf_counter()) / 2)
        self.steps.append(step)

    def read_if_due(self) -> None:
        if time.perf_counter() - self.times[-1] >= READ_EVERY_S:
            self.read()

    def _on_alarm(self, signum, frame) -> None:
        began = time.perf_counter()
        self.read()
        self.paused_s += time.perf_counter() - began

    def arm(self) -> None:
        self.paused_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)

    def disarm(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.paused_s

    def factor(self, start: float, end: float) -> float:
        """The factor for the wall interval from ``start`` to ``end``."""
        times = self.times
        first = min(
            bisect.bisect_left(times, start - self.REACH_S),
            bisect.bisect_left(times, start) - 1,
        )
        last = max(
            bisect.bisect_right(times, end + self.REACH_S),
            bisect.bisect_right(times, end) + 1,
        )
        around = self.steps[max(0, first) : last]
        return REFERENCE_STEP_S / statistics.fmean(around)


def tail(values: List[float]):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it: the 11th largest sample.  Below 20 samples, the median.
    """
    if not values:
        return 0.0, 0.0
    n = len(values)
    if n < 20:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def timing_summary(kinds: str, seconds: List[float]) -> Dict[str, float]:
    """Throughput and latency figures of one sequence of operations.

    ``kinds`` holds one letter per operation, ``r`` (read) or ``w``
    (write); ``seconds`` the operations' timed intervals.
    """
    reads = [s for k, s in zip(kinds, seconds) if k == "r"]
    writes = [s for k, s in zip(kinds, seconds) if k == "w"]
    total = sum(seconds)
    query_tail, query_pct = tail(reads)
    write_tail, write_pct = tail(writes)
    return {
        "ops_per_s": len(seconds) / total if total else 0.0,
        "op_s_total": total,
        "query_p50_ms": 1000 * statistics.median(reads) if reads else 0.0,
        "query_tail_ms": 1000 * query_tail,
        "query_tail_pct": query_pct,
        "query_samples": len(reads),
        "write_p50_ms": 1000 * statistics.median(writes) if writes else 0.0,
        "write_tail_ms": 1000 * write_tail,
        "write_tail_pct": write_pct,
        "write_samples": len(writes),
    }


def digest(result):
    """A cheap fingerprint of an operation's result (row counts)."""
    outcomes = getattr(result, "outcomes", None)
    if outcomes is not None:
        return [len(o.result.rows) for o in outcomes]
    rows = getattr(result, "rows", None)
    if rows is not None:
        return len(rows)
    if hasattr(result, "solution"):
        return [result.rounds, result.inferred_triples, len(result.solution)]
    if hasattr(result, "__len__"):
        return len(result)
    return int(bool(result))


def nearest_rank(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)
    return ordered[max(0, int(rank) - 1)]


class Measurement:
    """Per-operation timings, failures and deterministic facts."""

    def __init__(self) -> None:
        #: One letter per operation, ``r`` or ``w``, in stream order.
        self.kinds: List[str] = []
        self.seconds: List[float] = []
        self.digests: List = []
        self.blocks = 0
        #: Sum of the timed intervals as measured, before scaling.
        self.wall_s = 0.0
        self.failures: List[str] = []
        self.attempted = 0
        self.keyed = 0
        self.repeated = 0
        self.seen = set()
        self.prefix_ops = 0
        self.facts: List = []
        self.chase_write_s = 0.0
        #: Seconds the cyclic garbage collector ran inside timed ops.
        self.gc_in_ops_s = 0.0
        self._gc_started: Optional[float] = None
        self.in_op = False

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter() if self.in_op else None
        elif self._gc_started is not None:
            self.gc_in_ops_s += time.perf_counter() - self._gc_started

    def scale(self, speed: HostSpeed, spans: List[tuple]) -> None:
        """Scale the recorded timings to the reference host speed;
        ``spans`` holds each operation's ``perf_counter`` start and end.
        """
        for i, (start, end) in enumerate(spans):
            self.seconds[i] *= speed.factor(start, end)

    def record(self, op, seconds, result, problem, facts, in_prefix):
        self.attempted += 1
        self.wall_s += seconds
        self.kinds.append("w" if op.kind == "write" else "r")
        self.seconds.append(seconds)
        self.digests.append(None if result is None else digest(result))
        if problem is not None:
            self.failures.append(f"{op.name}: {problem}")
        if op.key is not None:
            self.keyed += 1
            if op.key in self.seen:
                self.repeated += 1
            self.seen.add(op.key)
        if in_prefix:
            self.prefix_ops += 1
            if facts is not None:
                self.facts.append(facts)
                if facts.chase_rounds:
                    self.chase_write_s += seconds

    def deterministic(self) -> Dict[str, float]:
        """Seed-determined metrics over the prefix (never wall time)."""
        facts = self.facts
        sims = [ms for f in facts for ms in f.sim_ms]
        queries = sum(f.queries for f in facts)
        messages = sum(f.messages for f in facts)
        transfer = sum(f.transfer_units for f in facts)
        return {
            "sim_p50_ms": statistics.median(sims) if sims else 0.0,
            "sim_p95_ms": nearest_rank(sims, 95),
            "sim_samples": len(sims),
            "messages_per_query": messages / queries if queries else 0.0,
            "transfer_units_per_query": (
                transfer / queries if queries else 0.0
            ),
            "federated_rows": sum(f.rows for f in facts),
            "runtime.busy_s": sum(f.busy_s for f in facts),
            "runtime.queueing_delay_s": sum(
                f.queueing_delay_s for f in facts
            ),
            "runtime.admission_wait_s": sum(
                f.admission_wait_s for f in facts
            ),
            "runtime.control_adjustments": sum(
                f.control_adjustments for f in facts
            ),
            "peers.chase_rounds": sum(f.chase_rounds for f in facts),
            "peers.chase_inferred_triples": sum(
                f.chase_inferred_triples for f in facts
            ),
            "prefix_ops": self.prefix_ops,
        }

    def summary(self) -> Dict[str, float]:
        inferred = self.deterministic()["peers.chase_inferred_triples"]
        chase_s = self.chase_write_s
        return {
            **timing_summary("".join(self.kinds), self.seconds),
            "failed_frac": len(self.failures) / max(1, self.attempted),
            "repeat_text_frac": self.repeated / max(1, self.keyed),
            "peers.chase_triples_per_s": (
                inferred / chase_s if chase_s else 0.0
            ),
            "gc.in_ops_s": self.gc_in_ops_s,
        }


def run_ops(workload, measurement, blocks, ledger, speed, oracle=True):
    """Closed loop over whole blocks; one client, no extra threads.

    Runs exactly ``blocks`` blocks.  Without ``oracle`` no result is
    checked.
    Timings are scaled to the reference host speed by ``speed``
    (:class:`HostSpeed`); its timer reads inside operations only when
    untraced, so that no layer's self time holds a reading.
    Returns the tracer holding the exported spans (``None`` untraced),
    the engine phase totals and the peak resident memory in MB at the
    end of the prefix.
    """
    tracer_cls = export = None
    if ledger is not None:
        from repro.obs import Tracer

        tracer_cls, export = Tracer, Tracer()
    phases = dict.fromkeys(PHASES, 0.0)
    prefix_blocks = workload.prefix_blocks
    stream = workload.blocks()
    done = ops = 0
    prefix_rss_mb = 0.0
    spans: List[tuple] = []
    while done < blocks:
        in_prefix = done < prefix_blocks
        for op in next(stream):
            if ledger is not None:
                tracer = export if ops < EXPORT_OPS else tracer_cls()
                workload.tracer = ledger.tracer = tracer
                handle = tracer.span(f"op:{op.name}", lane="bench")
                ledger.active = True
                ledger.enter("bench.op")
            error = result = None
            measurement.in_op = True
            if ledger is None:
                speed.arm()
            began = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failing op is counted and named
                error = f"raised {type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            paused = speed.disarm() if ledger is None else 0.0
            seconds_taken = ended - began - paused
            measurement.in_op = False
            spans.append((began, ended))
            if ledger is not None:
                ledger.exit()
                ledger.active = False
                handle.__exit__(None, None, None)
                for span in handle.span.walk():
                    if span.name in phases:
                        phases[span.name] += span.duration
            speed.read_if_due()
            problem, facts = error, None
            if problem is None and oracle:
                try:
                    problem = op.check(result)
                    facts = op.facts(result)
                except Exception as exc:  # the oracle itself broke
                    problem = f"oracle raised {type(exc).__name__}: {exc}"
            measurement.record(
                op, seconds_taken, result, problem, facts, in_prefix
            )
            ops += 1
            speed.read_if_due()
        done += 1
        if done == prefix_blocks:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            prefix_rss_mb = usage.ru_maxrss / 1024.0
    speed.read()
    measurement.scale(speed, spans)
    measurement.blocks = done
    return export, phases, prefix_rss_mb


def cache_counts(workload) -> Dict[str, tuple]:
    return {
        layer: (cache.stats()["hits"], cache.stats()["misses"])
        for layer, cache in workload.plan_caches.items()
    }


def ledger_metrics(ledger, workload, before, phases, det):
    """The per-layer metrics of a traced prefix run."""
    calls, incl = ledger.calls, ledger.inclusive
    layers = ledger.layer_totals()
    after = cache_counts(workload)

    def hit_ratio(layer: str) -> float:
        if layer not in after:
            return 0.0
        hits = after[layer][0] - before[layer][0]
        misses = after[layer][1] - before[layer][1]
        return hits / (hits + misses) if hits + misses else 0.0

    endpoint_rows = ledger.rows["federation.endpoint"]
    op_total = layers["bench"]["total_s"]
    metrics = {
        "rdf.add_calls": calls["rdf.add"],
        "rdf.add_s": incl["rdf.add"],
        "rdf.scan_calls": calls["rdf.scan"],
        "rdf.scan_s": incl["rdf.scan"],
        "rdf.count_calls": calls["rdf.count"],
        "rdf.count_s": incl["rdf.count"],
        "sparql.parse_s": phases["parse"],
        "sparql.normalise_s": phases["normalise"],
        "sparql.plan_s": phases["plan"],
        "sparql.execute_s": phases["execute"],
        "sparql.plan_cache_hit_ratio": hit_ratio("sparql"),
        "federation.prepare_calls": calls["federation.prepare"],
        "federation.prepare_s": incl["federation.prepare"],
        "federation.plan_cache_hit_ratio": hit_ratio("federation"),
        "federation.cost_calls": calls["federation.cost"],
        "federation.cost_s": incl["federation.cost"],
        "federation.endpoint_requests": calls["federation.endpoint"],
        "federation.endpoint_s": incl["federation.endpoint"],
        "federation.endpoint_rows": endpoint_rows,
        "federation.execute_self_s": ledger.self_time["federation.execute"],
        "federation.useful_row_ratio": (
            det["federated_rows"] / endpoint_rows if endpoint_rows else 0.0
        ),
        "runtime.replay_calls": calls["runtime.replay"],
        "runtime.replay_s": incl["runtime.replay"],
        "runtime.events": ledger.events,
        "runtime.requests": calls["runtime.submit"],
        "peers.chase_s": incl["peers.chase"],
        "peers.answer_s": incl["peers.answer"],
        "gpq.evaluate_calls": calls["gpq.evaluate"],
        "gpq.evaluate_s": incl["gpq.evaluate"],
        "unattributed_frac": (
            layers["bench"]["self_s"] / op_total if op_total else 0.0
        ),
    }
    for layer, row in layers.items():
        if layer != "bench":
            metrics[f"{layer}.self_s"] = row["self_s"]
    return metrics, layers


def export_trace(tracer, name: str, seed: int):
    """Write the spans as Chrome trace JSON.

    Returns the file's path relative to the checkout, the number of
    events and the problems ``validate_trace_events`` found.
    """
    from repro.obs import chrome_trace_events, validate_trace_events

    document = chrome_trace_events(tracer, domain="wall")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(document, sort_keys=True))
    events = len(document["traceEvents"])
    problems = validate_trace_events(document)
    return str(path.relative_to(ROOT)), events, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode",
        choices=("setup", "run", "replay", "prefix"),
        required=True,
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        # Measure the checkout's own sources, never an installed copy.
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    speed = HostSpeed()
    speed.arm()
    began = time.perf_counter()
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ended = time.perf_counter()
    setup_wall_s = ended - began - speed.disarm()
    speed.read()
    out = {
        "setup_s": setup_wall_s * speed.factor(began, ended),
        "setup_wall_s": setup_wall_s,
        "rdf.build_s": workload.build_s,
    }
    # The loaded inputs live for the whole run: move them to the
    # permanent generation, so full collections triggered by the
    # oracle's allocations do not rescan them inside a random timed op.
    gc.collect()
    gc.freeze()
    if args.mode != "setup":
        ledger = None
        if args.trace:
            from ledger import Ledger, install

            ledger = Ledger()
            install(ledger)
        before = cache_counts(workload)
        measurement = Measurement()
        gc.callbacks.append(measurement.gc_callback)
        blocks = workload.prefix_blocks
        if args.mode == "run":
            # A fixed number of blocks for the run's length, so that
            # the host's speed never changes which operations are timed.
            blocks = max(blocks, round(args.seconds / workload.block_s))
        elif args.mode == "replay":
            blocks = args.blocks
        oracle = args.mode != "replay"
        export, phases, prefix_rss_mb = run_ops(
            workload, measurement, blocks, ledger, speed, oracle
        )
        gc.callbacks.remove(measurement.gc_callback)
        det = measurement.deterministic()
        out.update(measurement.summary())
        out["kinds"] = "".join(measurement.kinds)
        out["seconds"] = measurement.seconds
        out["wall_s"] = measurement.wall_s
        out["digests"] = measurement.digests
        out["blocks"] = measurement.blocks
        out["attempted"] = measurement.attempted
        out["failed"] = len(measurement.failures)
        out["failures"] = measurement.failures[:20]
        out["deterministic"] = det
        naive_s = getattr(workload, "naive_chase_s", 0.0)
        out["peers.semi_naive_slowdown"] = (
            measurement.chase_write_s / naive_s if naive_s else 0.0
        )
        if ledger is not None:
            metrics, layers = ledger_metrics(
                ledger, workload, before, phases, det
            )
            path, events, problems = export_trace(
                export, args.workload, args.seed
            )
            metrics["obs.trace_spans"] = events
            metrics["obs.trace_valid"] = 0 if problems else 1
            out["ledger"] = metrics
            out["layers"] = layers
            out["trace_file"] = path
            out["trace_problems"] = problems[:5]
    if args.mode == "replay":
        out["peak_rss_mb"] = prefix_rss_mb
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
