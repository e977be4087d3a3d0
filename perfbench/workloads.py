"""The four benchmark workloads, built only from seeded generated inputs.

Each workload is a class whose constructor is the timed set-up (input
generation, graph/RPS/executor construction, warm-up) and whose
:meth:`Workload.blocks` method yields an endless, seed-determined
stream of *blocks*.  A block is a fixed-composition group of
operations (its order shuffled by the seed), so every run sees the
same mix whatever the seed, and a run stopped at a block boundary has
no partial mix.

An operation is an :class:`Op`: the callable the benchmark times, its
kind (``read`` or ``write``), the key that identifies its request text
(for the repeated-text share), and an oracle check that runs outside
the timed interval and returns ``None`` or a problem description.

Only the public API is called: ``repro.sparql.engine.execute``,
``FederatedExecutor.execute``/``execute_concurrent``,
``chase_universal_solution`` and ``certain_answers``.  Module
attributes are looked up at call time, so the per-layer ledger's
wrappers (``ledger.py``) see every call.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional

from repro.federation import FederatedExecutor, NetworkModel
from repro.obs import NULL_TRACER
from repro.rdf.terms import IRI
from repro.rdf.triples import Triple
from repro.sparql import engine
from repro.sparql.algebra import (
    evaluate_algebra,
    reference_select,
    translate_group,
)
from repro.sparql.ast import AskQuery
from repro.sparql.parser import parse_query
from repro.sparql.plan import select_rows
from repro.workload import (
    PAPER_EXPECTED_ANSWERS,
    GeneratorConfig,
    chain_rps,
    cycle_rps,
    example2_rps,
    federated_rps,
    figure1_namespaces,
    paper_query_text,
    random_entity_graph,
    scaled_film_rps,
    star_rps,
    tenant_workload,
)
from repro.workload.federation import (
    federated_ask_sparql,
    federated_exclusive_query,
    federated_limit_sparql,
    federated_optional_filter_sparql,
    federated_path_query,
    federated_selective_query,
    federated_topk_sparql,
    federated_union_filter_sparql,
)
from repro.workload.film_domain import DB1, DB2, FOAF
from repro.workload.tenants import TenantQuery
from repro.workload.topologies import peer_namespace

# ``repro.peers`` re-exports functions under these module names.
peers_answers = importlib.import_module("repro.peers.certain_answers")
peers_chase = importlib.import_module("repro.peers.chase")

__all__ = ["WORKLOADS", "Facts", "Op"]


@dataclass
class Facts:
    """Deterministic observations of one operation's result.

    Everything here is a pure function of the seed and the operation's
    position in the stream (simulated network time, message counts,
    chase statistics), never of wall time.
    """

    sim_ms: List[float] = field(default_factory=list)
    queries: int = 0
    messages: int = 0
    transfer_units: int = 0
    rows: int = 0
    busy_s: float = 0.0
    queueing_delay_s: float = 0.0
    admission_wait_s: float = 0.0
    control_adjustments: int = 0
    chase_rounds: int = 0
    chase_inferred_triples: int = 0


def _no_facts(result) -> Facts:
    return Facts()


@dataclass
class Op:
    """One benchmark operation.

    ``call`` is the timed interval; ``check(result)`` is the oracle,
    run after the interval; ``facts(result)`` extracts the
    deterministic observations.
    """

    kind: str
    name: str
    key: Hashable
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    facts: Callable[[Any], Facts] = _no_facts


class Workload:
    """Shared shape: set-up in ``__init__``, a block stream, a tracer.

    ``tracer`` is the :class:`repro.obs.Tracer` handed to the engine
    calls that accept one; the traced run sets it per operation, the
    untraced run leaves the shared no-op tracer in place.
    """

    #: Blocks every run completes; the deterministic metrics and the
    #: traced run cover exactly this prefix of the stream.
    prefix_blocks = 1

    #: Wall seconds one block takes with its oracle checks, at the
    #: reference host speed; sizes a run of a given length.
    block_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = NULL_TRACER
        self.build_s = 0.0
        #: Plan caches whose hit ratio the ledger reports, by layer.
        self.plan_caches: Dict[str, Any] = {}

    def blocks(self) -> Iterator[Iterator[Op]]:
        raise NotImplementedError


def _rows_problem(got, expected) -> Optional[str]:
    if got == expected:
        return None
    return f"{len(got)} rows, oracle has {len(expected)}"


# -- local_rw ---------------------------------------------------------------

GEN = "http://gen.example.org/"


class LocalRW(Workload):
    """Local SPARQL reads and insert batches on one ~110k-triple graph.

    A block is 25 operations: 15 anchored point reads (4 one-hop, 11
    two-hop, variable predicates), 5 analytic joins (one each of 2-hop
    path, 3-star, FILTER, UNION and ORDER BY ... LIMIT over random
    predicates), one bare LIMIT, one ASK and three 50-triple insert
    batches through ``Graph.add_all``.  Two-hop point reads are the
    majority of reads, so the median read sits inside one latency
    cluster.  Every answer is checked against the term-level algebra
    evaluator at the same graph state.
    """

    prefix_blocks = 4
    block_s = 1.0
    ENTITIES = 10_000
    PREDICATES = 20
    ANALYTIC = ("path", "star", "filter", "union", "topk")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        start = time.perf_counter()
        self.graph = random_entity_graph(
            GeneratorConfig(
                entities=self.ENTITIES,
                predicates=self.PREDICATES,
                triples=100_000,
                attributes=10_000,
                seed=seed,
            ),
            name="local",
        )
        self.build_s = time.perf_counter() - start
        self.plan_caches["sparql"] = engine.default_plan_cache
        # Warm-up: one query of each engine path on fixed texts.
        for text in (
            f"SELECT ?p ?y WHERE {{ <{GEN}e0> ?p ?y }}",
            self._analytic("path", 0, 1, 2),
            self._analytic("topk", 0, 1, 2),
            f"SELECT ?x WHERE {{ ?x <{GEN}p0> ?y }} LIMIT 5",
            f"ASK {{ ?x <{GEN}p0> ?y }}",
        ):
            engine.execute(self.graph, text)

    # query texts ------------------------------------------------------

    def _entity(self) -> str:
        return f"<{GEN}e{self.rng.randrange(self.ENTITIES)}>"

    def _predicates(self, n: int) -> List[str]:
        picks = self.rng.sample(range(self.PREDICATES), n)
        return [f"<{GEN}p{i}>" for i in picks]

    @staticmethod
    def _analytic(shape: str, *ps) -> str:
        a, b, c = (p if isinstance(p, str) else f"<{GEN}p{p}>" for p in ps)
        if shape == "path":
            return f"SELECT ?x ?z WHERE {{ ?x {a} ?y . ?y {b} ?z }}"
        if shape == "star":
            return f"SELECT ?x WHERE {{ ?x {a} ?u . ?x {b} ?v . ?x {c} ?w }}"
        if shape == "filter":
            return (
                f"SELECT ?x ?y WHERE {{ ?x {a} ?y . ?y {b} ?z "
                f"FILTER(?x != ?z) }}"
            )
        if shape == "union":
            return (
                f"SELECT ?x ?y WHERE {{ {{ ?x {a} ?y }} UNION "
                f"{{ ?x {b} ?y }} }}"
            )
        return (
            f"SELECT ?x ?z WHERE {{ ?x {a} ?y . ?y {b} ?z }} "
            f"ORDER BY DESC(?z) ?x LIMIT 10"
        )

    # operations -------------------------------------------------------

    def _read(self, name: str, text: str, check) -> Op:
        graph = self.graph

        def call():
            return engine.execute(graph, text, tracer=self.tracer)

        return Op("read", name, text, call, check)

    def _exact(self, name: str, text: str) -> Op:
        graph = self.graph
        ast = parse_query(text)

        def check(result) -> Optional[str]:
            expected = reference_select(graph, ast)
            if ast.order:
                return None if result.rows == expected else "order differs"
            return _rows_problem(set(result.rows), set(expected))

        return self._read(name, text, check)

    def _limit(self, a: str, b: str, k: int) -> Op:
        graph = self.graph
        base = f"SELECT ?x ?z WHERE {{ ?x {a} ?y . ?y {b} ?z }}"

        def check(result) -> Optional[str]:
            full = set(reference_select(graph, parse_query(base)))
            rows = set(result.rows)
            if len(result.rows) != min(k, len(full)) or not rows <= full:
                return f"{len(rows)} rows is not a {k}-row window"
            return None

        return self._read("limit", f"{base} LIMIT {k}", check)

    def _ask(self, a: str, b: str) -> Op:
        graph = self.graph
        text = f"ASK {{ ?x {a} ?y . ?y {b} ?x }}"
        node = translate_group(parse_query(text).where)

        def check(result) -> Optional[str]:
            expected = bool(evaluate_algebra(graph, node))
            return None if bool(result) == expected else "ASK differs"

        return self._read("ask", text, check)

    def _insert(self) -> Op:
        graph, rng = self.graph, self.rng
        batch = [
            Triple(
                IRI(f"{GEN}e{rng.randrange(self.ENTITIES)}"),
                IRI(f"{GEN}p{rng.randrange(self.PREDICATES)}"),
                IRI(f"{GEN}e{rng.randrange(self.ENTITIES)}"),
            )
            for _ in range(50)
        ]
        before = len(graph)
        new = len({t for t in batch if t not in graph})

        def check(added) -> Optional[str]:
            if added != new or len(graph) != before + new:
                return f"added {added}, expected {new}"
            if not all(t in graph for t in batch):
                return "inserted triple missing"
            return None

        return Op("write", "insert", None, lambda: graph.add_all(batch), check)

    def blocks(self) -> Iterator[Iterator[Op]]:
        while True:
            plan = ["point1"] * 4 + ["point2"] * 11 + list(self.ANALYTIC)
            plan += ["limit", "ask", "insert", "insert", "insert"]
            self.rng.shuffle(plan)
            yield self._block(plan)

    def _block(self, plan: List[str]) -> Iterator[Op]:
        for kind in plan:
            # Ops are built lazily, so writes earlier in the block are
            # visible to a later op's oracle and expected counts.
            if kind == "point1":
                yield self._exact(
                    kind, f"SELECT ?p ?y WHERE {{ {self._entity()} ?p ?y }}"
                )
            elif kind == "point2":
                yield self._exact(
                    kind,
                    f"SELECT ?p ?y ?q ?z WHERE {{ {self._entity()} ?p ?y . "
                    f"?y ?q ?z }}",
                )
            elif kind in self.ANALYTIC:
                yield self._exact(
                    kind, self._analytic(kind, *self._predicates(3))
                )
            elif kind == "limit":
                a, b = self._predicates(2)
                yield self._limit(a, b, self.rng.randint(5, 20))
            elif kind == "ask":
                yield self._ask(*self._predicates(2))
            else:
                yield self._insert()


# -- fed_mixed --------------------------------------------------------------

#: Seed of the federated workloads' peer data; the run's seed drives
#: their query streams.  At 240-600 facts a random system's join
#: fan-out varies by a fifth between data seeds, which would swamp the
#: latencies being compared.
DATA_SEED = 7


def _federation_facts(result) -> Facts:
    stats = result.stats
    channels = result.channels.values()
    return Facts(
        sim_ms=[stats.elapsed_seconds * 1000.0],
        queries=1,
        messages=stats.messages,
        transfer_units=stats.transfer_units,
        rows=len(result.rows),
        busy_s=sum(c.busy_seconds for c in channels),
        queueing_delay_s=sum(c.wait_seconds for c in channels),
    )


class FedMixed(Workload):
    """Federated SPARQL over four peers, strategies adaptive/parallel.

    A block is 16 queries from the ``workload/federation.py``
    templates: ten anchored 2-hop paths (the common cheap query, so the
    median read sits inside one latency cluster), and one each of an
    anchored 3-hop path, an unanchored ``LIMIT k``, OPTIONAL+FILTER,
    UNION+FILTER, top-k and ASK.  The peer data is fixed
    (:data:`DATA_SEED`); anchors, ``k`` and the order are drawn from the
    seed, anchors uniformly.  Strategies alternate
    ``adaptive``/``parallel`` across the stream.
    Answers are checked against the single-graph evaluator over
    ``system.stored_database()``, built on the oracle's first use:
    exactly, as a subset of the right size for unordered LIMIT, as a
    boolean for ASK.
    """

    prefix_blocks = 13
    block_s = 0.65
    ENTITIES = 150
    PLAN = ("anchored2",) * 10 + (
        "anchored3",
        "limit",
        "optional_filter",
        "union_filter",
        "topk",
        "ask",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        start = time.perf_counter()
        self.system = federated_rps(
            peers=4, entities=self.ENTITIES, facts=600, seed=DATA_SEED
        )
        self.build_s = time.perf_counter() - start
        self.executor = FederatedExecutor(self.system)
        self.plan_caches["federation"] = self.executor.plan_cache
        self.merged = None
        self._oracle: Dict[str, Any] = {}
        self._ops = 0
        for strategy in ("adaptive", "parallel"):
            self.executor.execute(
                federated_limit_sparql(hops=2, anchor=0), strategy
            )

    def _reference(self, text: str):
        cached = self._oracle.get(text)
        if cached is None:
            if self.merged is None:
                self.merged = self.system.stored_database()
            ast = parse_query(text)
            node = translate_group(ast.where)
            if isinstance(ast, AskQuery):
                cached = select_rows(self.merged, node, ())
            elif ast.order:
                cached = set(reference_select(self.merged, ast))
            else:
                cached = select_rows(self.merged, node, ast.projected())
            self._oracle[text] = cached
        return cached

    def _op(self, name: str, text: str, check) -> Op:
        strategy = ("adaptive", "parallel")[self._ops % 2]
        self._ops += 1
        executor = self.executor

        def checked(result) -> Optional[str]:
            if result.partial is not None:
                return "partial answer without injected faults"
            return check(result.rows)

        return Op(
            "read",
            f"{name}:{strategy}",
            text,
            lambda: executor.execute(text, strategy),
            checked,
            _federation_facts,
        )

    def _exact(self, name: str, text: str) -> Op:
        def check(rows) -> Optional[str]:
            return _rows_problem(rows, self._reference(text))

        return self._op(name, text, check)

    def _limit(self, k: int) -> Op:
        text = federated_limit_sparql(hops=2, limit=k)
        base = federated_limit_sparql(hops=2)

        def check(rows) -> Optional[str]:
            full = self._reference(base)
            if len(rows) != min(k, len(full)) or not rows <= full:
                return f"{len(rows)} rows is not a {k}-row window"
            return None

        return self._op("limit", text, check)

    def _ask(self, hops: int) -> Op:
        text = federated_ask_sparql(hops=hops)

        def check(rows) -> Optional[str]:
            expected = bool(self._reference(text))
            return None if bool(rows) == expected else "ASK differs"

        return self._op("ask", text, check)

    def blocks(self) -> Iterator[Iterator[Op]]:
        while True:
            plan = list(self.PLAN)
            self.rng.shuffle(plan)
            yield self._block(plan)

    def _block(self, plan) -> Iterator[Op]:
        rng = self.rng
        for kind in plan:
            if kind == "anchored2":
                anchor = rng.randrange(self.ENTITIES)
                text = federated_limit_sparql(hops=2, anchor=anchor)
                yield self._exact(kind, text)
            elif kind == "anchored3":
                anchor = rng.randrange(self.ENTITIES)
                text = federated_limit_sparql(hops=3, anchor=anchor)
                yield self._exact(kind, text)
            elif kind == "limit":
                yield self._limit(rng.randint(5, 20))
            elif kind == "optional_filter":
                anchor = rng.randrange(self.ENTITIES)
                text = federated_optional_filter_sparql(entity=anchor)
                yield self._exact(kind, text)
            elif kind == "union_filter":
                yield self._exact(kind, federated_union_filter_sparql())
            elif kind == "topk":
                text = federated_topk_sparql(hops=2, limit=rng.randint(5, 10))
                yield self._exact(kind, text)
            else:
                yield self._ask(rng.choice((2, 3)))


# -- fed_tenants ------------------------------------------------------------

#: Transfer-heavy network: cheap round trips, expensive payload, so
#: per-binding bound-join requests pile up on the endpoint channels.
TENANT_NETWORK = dict(
    latency_seconds=0.01, per_solution_seconds=0.01, per_triple_seconds=0.05
)


class FedTenants(Workload):
    """Rounds of 16 concurrent tenants on one contended runtime.

    A block is one round of 16 tenants through
    ``execute_concurrent(strategy="bound", discipline="wrr",
    adaptive=True)`` on a ``batch_size=1, concurrency=1`` executor.
    A round draws on the ``tenant_workload`` templates in that
    generator's expected proportions, but fixed per round: eight
    anchored selective paths, two full 1-hop and two full 2-hop paths
    and four exclusive-group queries, in seeded tenant order.  Drawn
    independently per tenant, the number of full paths in a round
    varies so much that the median round time spread by a third of
    its median over five seeds.  Tenants with identical parameters
    share one query object, as in ``tenant_workload``.
    Each tenant's answers are checked against its solo
    ``execute(query, "bound")`` on a separate executor, built on the
    oracle's first use.

    The seed drives the tenant rounds; the peer data and the warm-up
    round are fixed (:data:`DATA_SEED`).
    """

    prefix_blocks = 16
    block_s = 0.32
    ENTITIES = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        start = time.perf_counter()
        self.system = federated_rps(
            peers=3, entities=self.ENTITIES, facts=240, seed=DATA_SEED
        )
        self.build_s = time.perf_counter() - start
        self.executor = self._executor()
        self.plan_caches["federation"] = self.executor.plan_cache
        self.solo = None
        self._solo_rows: Dict[Any, Any] = {}
        self._run(
            tenant_workload(4, seed=DATA_SEED, entities=self.ENTITIES)
        )

    def _tenants(self) -> List[TenantQuery]:
        rng = self.rng
        keys = [("selective", rng.randrange(self.ENTITIES)) for _ in range(8)]
        keys += [("path", 1), ("path", 1), ("path", 2), ("path", 2)]
        keys += [("exclusive", 1)] * 4
        rng.shuffle(keys)
        shared: Dict[tuple, Any] = {}
        for key in keys:
            if key in shared:
                continue
            if key[0] == "selective":
                shared[key] = federated_selective_query(entity=key[1], hops=2)
            elif key[0] == "path":
                shared[key] = federated_path_query(hops=key[1])
            else:
                shared[key] = federated_exclusive_query(hops=key[1])
        return [TenantQuery(f"t{i}", shared[k]) for i, k in enumerate(keys)]

    def _executor(self) -> FederatedExecutor:
        return FederatedExecutor(
            self.system,
            NetworkModel(**TENANT_NETWORK),
            batch_size=1,
            concurrency=1,
        )

    def _run(self, tenants):
        return self.executor.execute_concurrent(
            [(t.tenant, t.query) for t in tenants],
            strategy="bound",
            discipline="wrr",
            adaptive=True,
        )

    def _check(self, tenants, result) -> Optional[str]:
        for tenant, outcome in zip(tenants, result.outcomes):
            if outcome.result.partial is not None:
                return f"{tenant.tenant}: partial answer"
            expected = self._solo_rows.get(tenant.query)
            if expected is None:
                if self.solo is None:
                    self.solo = self._executor()
                expected = self.solo.execute(tenant.query, "bound").rows
                self._solo_rows[tenant.query] = expected
            problem = _rows_problem(outcome.result.rows, expected)
            if problem is not None:
                return f"{tenant.tenant}: {problem}"
        return None

    @staticmethod
    def _facts(result) -> Facts:
        outcomes = result.outcomes
        channels = result.channels.values()
        return Facts(
            sim_ms=[o.makespan * 1000.0 for o in outcomes],
            queries=len(outcomes),
            messages=sum(o.result.stats.messages for o in outcomes),
            transfer_units=sum(
                o.result.stats.transfer_units for o in outcomes
            ),
            rows=sum(len(o.result.rows) for o in outcomes),
            busy_s=sum(c.busy_seconds for c in channels),
            queueing_delay_s=sum(c.wait_seconds for c in channels),
            admission_wait_s=sum(o.admission_wait for o in outcomes),
            control_adjustments=len(result.adjustments),
        )

    def _round(self, tenants) -> Op:
        return Op(
            "read",
            "round",
            tuple(t.query for t in tenants),
            lambda: self._run(tenants),
            lambda result: self._check(tenants, result),
            self._facts,
        )

    def blocks(self) -> Iterator[Iterator[Op]]:
        while True:
            yield iter([self._round(self._tenants())])


# -- pdms_chase -------------------------------------------------------------


class PdmsChase(Workload):
    """Algorithm-1 sessions: one chase, then certain-answer reads.

    A block is one cycle of six sessions in seeded order — films 40,
    80 and 120 (``scaled_film_rps``), a 6-peer chain, a 5-peer cycle
    and a 6-peer star (30 entities, 80 facts) — with the Example-2
    session added to the first block.  A session is one
    ``chase_universal_solution`` (the write) followed by 20-50
    ``certain_answers(..., solution=...)`` reads; the six sessions of a
    cycle share out the read counts 20, 26, ..., 50, so every cycle
    has the same number of operations.  The oracle is the
    ``semi_naive=False`` chase: same rounds, inferred triples and
    solution size, and the same answers; Example 2 must also return
    the paper's Listing-1 answers.
    """

    block_s = 6.5
    FILMS = (40, 80, 120)
    READS = (20, 26, 32, 38, 44, 50)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        start = time.perf_counter()
        topo = dict(entities=30, facts=80, seed=DATA_SEED)
        self.systems = {
            f"film{n}": scaled_film_rps(n, seed=DATA_SEED)
            for n in self.FILMS
        }
        self.systems["chain6"] = chain_rps(6, **topo)
        self.systems["cycle5"] = cycle_rps(5, **topo)
        self.systems["star6"] = star_rps(6, **topo)
        self.systems["example2"] = example2_rps()
        self.build_s = time.perf_counter() - start
        self.nsm = figure1_namespaces()
        self._naive: Dict[str, Any] = {}
        self._answers: Dict[Any, Any] = {}
        #: Wall seconds of the oracle's ``semi_naive=False`` chases (each
        #: system once), for the semi-naive vs naive comparison.
        self.naive_chase_s = 0.0
        example2 = self.systems["example2"]
        solution = peers_chase.chase_universal_solution(example2).solution
        peers_answers.certain_answers(
            example2, paper_query_text(), self.nsm, solution
        )

    def _naive_chase(self, name: str):
        cached = self._naive.get(name)
        if cached is None:
            start = time.perf_counter()
            cached = peers_chase.chase_universal_solution(
                self.systems[name], semi_naive=False
            )
            self.naive_chase_s += time.perf_counter() - start
            self._naive[name] = cached
        return cached

    def _read_text(self, name: str) -> str:
        rng = self.rng
        if name == "example2":
            return paper_query_text()
        if name.startswith("film"):
            films = int(name[4:])
            shape = rng.randrange(3)
            if shape == 0:
                film = DB1.term(f"film{rng.randrange(films)}").n3()
                return (
                    f"SELECT ?x ?y WHERE {{ {film} {DB1.starring.n3()} ?z . "
                    f"?z {DB1.artist.n3()} ?x . ?x {FOAF.age.n3()} ?y }}"
                )
            if shape == 1:
                movie = DB2.term(f"movie{rng.randrange(films)}").n3()
                return f"SELECT ?x WHERE {{ {movie} {DB2.actor.n3()} ?x }}"
            actor = DB1.term(f"actor{rng.randrange(films * 3)}").n3()
            return f"SELECT ?y WHERE {{ {actor} {FOAF.age.n3()} ?y }}"
        ns = peer_namespace(rng.randrange(int(name[-1])))
        e = ns.term(f"e{rng.randrange(30)}").n3()
        if rng.random() < 0.5:
            return f"SELECT ?y WHERE {{ {e} {ns.knows.n3()} ?y }}"
        return (
            f"SELECT ?y ?a WHERE {{ {e} {ns.knows.n3()} ?y . "
            f"?y {ns.age.n3()} ?a }}"
        )

    def _session(self, name: str, reads: int) -> Iterator[Op]:
        system = self.systems[name]
        state: Dict[str, Any] = {}

        def chase():
            result = peers_chase.chase_universal_solution(system)
            state["solution"] = result.solution
            return result

        def check_chase(result) -> Optional[str]:
            naive = self._naive_chase(name)
            got = (
                result.rounds,
                result.inferred_triples,
                len(result.solution),
            )
            want = (naive.rounds, naive.inferred_triples, len(naive.solution))
            if got != want:
                return f"(rounds, inferred, size) {got} != naive {want}"
            return None

        def facts(result) -> Facts:
            return Facts(
                chase_rounds=result.rounds,
                chase_inferred_triples=result.inferred_triples,
            )

        yield Op("write", f"chase:{name}", name, chase, check_chase, facts)
        nsm = self.nsm if name == "example2" else None
        for _ in range(reads):
            text = self._read_text(name)
            yield self._answer(name, system, text, nsm, state)

    def _answer(self, name, system, text, nsm, state) -> Op:
        def call():
            return peers_answers.certain_answers(
                system, text, nsm, solution=state["solution"]
            )

        def check(answers) -> Optional[str]:
            key = (name, text)
            expected = self._answers.get(key)
            if expected is None:
                naive = self._naive_chase(name).solution
                expected = peers_answers.certain_answers(
                    system, text, nsm, solution=naive
                )
                self._answers[key] = expected
            if name == "example2" and answers != PAPER_EXPECTED_ANSWERS:
                return "Example 2 answers differ from Listing 1"
            return _rows_problem(answers, expected)

        return Op("read", f"answer:{name}", (name, text), call, check)

    def blocks(self) -> Iterator[Iterator[Op]]:
        first = True
        while True:
            names = [f"film{n}" for n in self.FILMS]
            names += ["chain6", "cycle5", "star6"]
            reads = list(self.READS)
            self.rng.shuffle(names)
            self.rng.shuffle(reads)
            sessions = list(zip(names, reads))
            if first:
                sessions.insert(0, ("example2", 1))
                first = False
            yield (
                op
                for name, count in sessions
                for op in self._session(name, count)
            )


WORKLOADS = {
    "local_rw": LocalRW,
    "fed_mixed": FedMixed,
    "fed_tenants": FedTenants,
    "pdms_chase": PdmsChase,
}
