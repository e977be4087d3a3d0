"""Per-layer ledger: wraps each layer's public entry points in-process.

:func:`install` replaces the entry points listed in :data:`ENTRY_POINTS`
(class methods and the module-level names the benchmark and the chase
look up) with wrappers that count calls and accumulate inclusive and
self wall time per *group* (``rdf.scan``, ``federation.endpoint``, ...).
A group belongs to the layer named before its dot.  Self time is a
frame's duration minus the part its wrapped children cover, so the
self times of all frames partition the traced wall time without
double counting; inclusive time is added only for the outermost frame
of a group.

Wrappers account only while :attr:`Ledger.active` is set — inside the
timed operation intervals — so the oracle's calls never reach the
ledger.  Generator entry points (``Graph.triples_ids``) are timed per
step, so only the producer's time counts, not the consumer's.

Coarse entry points also open a :class:`repro.obs.Tracer` span on the
current operation's tracer; the first operations of a traced run share
one tracer that is exported as Chrome ``trace_event`` JSON.  Per-row
helpers are deliberately left unwrapped: their cost shows up as the
self time of the entry point that calls them.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["ENTRY_POINTS", "Ledger", "install"]

#: (module, owner attribute or None for a module function, names, group,
#:  kind) — kind is "call", "span" (also opens a tracer span), "iter"
#:  (generator, timed per step) or "rows" (counts returned rows).
ENTRY_POINTS = (
    ("repro.rdf.graph", "Graph", ("add", "add_all"), "rdf.add", "call"),
    ("repro.rdf.graph", "Graph", ("triples_ids",), "rdf.scan", "iter"),
    ("repro.rdf.graph", "Graph", ("runs",), "rdf.scan", "call"),
    (
        "repro.rdf.graph",
        "Graph",
        ("count_ids", "count_pattern"),
        "rdf.count",
        "call",
    ),
    ("repro.sparql.engine", None, ("execute",), "sparql.execute", "span"),
    (
        "repro.federation.executor",
        "FederatedExecutor",
        ("prepare",),
        "federation.prepare",
        "span",
    ),
    (
        "repro.federation.executor",
        "FederatedExecutor",
        ("execute", "execute_concurrent"),
        "federation.execute",
        "span",
    ),
    (
        "repro.federation.cost",
        "CostModel",
        ("decide", "decide_group"),
        "federation.cost",
        "call",
    ),
    (
        "repro.federation.endpoint",
        "PeerEndpoint",
        (
            "pattern_solutions",
            "bound_solutions",
            "group_solutions",
            "bound_group_solutions",
            "relation_ids",
        ),
        "federation.endpoint",
        "rows",
    ),
    (
        "repro.federation.endpoint",
        "PeerEndpoint",
        ("count_pattern", "count_relation"),
        "federation.stats",
        "call",
    ),
    ("repro.runtime.kernel", "SimKernel", ("run",), "runtime.replay", "span"),
    (
        "repro.runtime.kernel",
        "SimKernel",
        ("schedule", "schedule_at", "defer"),
        "runtime.schedule",
        "call",
    ),
    (
        "repro.runtime.channel",
        "Channel",
        ("submit",),
        "runtime.submit",
        "call",
    ),
    (
        "repro.peers.chase",
        None,
        ("chase_universal_solution",),
        "peers.chase",
        "span",
    ),
    (
        "repro.peers.certain_answers",
        None,
        ("certain_answers",),
        "peers.answer",
        "span",
    ),
    ("repro.peers.chase", None, ("evaluate_query",), "gpq.evaluate", "span"),
    (
        "repro.peers.certain_answers",
        None,
        ("evaluate_query",),
        "gpq.evaluate",
        "span",
    ),
)

#: Layers in report order; ``bench`` is time inside an operation that
#: no wrapped entry point covers (the unattributed remainder).
LAYERS = ("rdf", "sparql", "federation", "runtime", "peers", "gpq", "bench")


class Ledger:
    """Call counts and wall time per group, built from a frame stack."""

    def __init__(self) -> None:
        self.active = False
        #: Tracer of the current operation (``None`` = no spans).
        self.tracer = None
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.rows: Dict[str, int] = defaultdict(int)
        self.layer_inclusive: Dict[str, float] = defaultdict(float)
        self.events = 0
        self._stack: List[list] = []

    def enter(self, group: str, span: Optional[str] = None) -> None:
        handle = None
        if span is not None and self.tracer is not None:
            handle = self.tracer.span(span, lane=group.split(".")[0])
        self._stack.append([group, perf_counter(), 0.0, handle])

    def exit(self) -> None:
        group, start, covered, handle = self._stack.pop()
        duration = perf_counter() - start
        if handle is not None:
            handle.__exit__(None, None, None)
        self.self_time[group] += duration - covered
        if all(frame[0] != group for frame in self._stack):
            self.inclusive[group] += duration
        layer = group.split(".")[0]
        if all(not frame[0].startswith(layer + ".") for frame in self._stack):
            self.layer_inclusive[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Calls, outermost-inclusive time and self time per layer."""
        out = {
            layer: {
                "calls": 0,
                "total_s": self.layer_inclusive.get(layer, 0.0),
                "self_s": 0.0,
            }
            for layer in LAYERS
        }
        for group, seconds in self.self_time.items():
            out[group.split(".")[0]]["self_s"] += seconds
        for group, count in self.calls.items():
            out[group.split(".")[0]]["calls"] += count
        return out


def _wrap(ledger: Ledger, original, group: str, kind: str, label: str):
    span = label if kind == "span" else None

    if kind == "iter":

        def stepper(iterator):
            while True:
                ledger.enter(group)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ledger.exit()
                yield item

        def wrapper(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            ledger.calls[group] += 1
            return stepper(original(*args, **kwargs))

        return wrapper

    def wrapper(*args, **kwargs):
        if not ledger.active:
            return original(*args, **kwargs)
        ledger.calls[group] += 1
        ledger.enter(group, span)
        try:
            result = original(*args, **kwargs)
        finally:
            ledger.exit()
        if kind == "rows":
            ledger.rows[group] += len(result)
        return result

    if group == "runtime.replay":
        # The kernel counts the events it processes; read the delta.
        def replay(kernel, *args, **kwargs):
            before = kernel.events_processed
            try:
                return wrapper(kernel, *args, **kwargs)
            finally:
                if ledger.active:
                    ledger.events += kernel.events_processed - before

        return replay
    return wrapper


def install(ledger: Ledger) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` for this process."""
    for module_name, owner_name, names, group, kind in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        for name in names:
            original = getattr(owner, name)
            label = f"{group}:{name}"
            setattr(owner, name, _wrap(ledger, original, group, kind, label))
