"""Statistics staleness: TTL catalog, charged refreshes, plan recovery."""

import pytest

from repro.errors import FederationError
from repro.federation import (
    FederatedExecutor,
    NetworkModel,
    NetworkStats,
    StatisticsCatalog,
)
from repro.federation.endpoint import PeerEndpoint
from repro.gpq.evaluation import evaluate_query_star
from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple, TriplePattern
from repro.peers.system import RPS
from repro.workload.federation import (
    federated_path_query,
    federated_rps,
    federated_selective_query,
    federated_union_filter_sparql,
    grow_knows_relation,
)
from repro.workload.topologies import peer_namespace


def _scenario_model():
    """Volume-sensitive parameters: pull is cheap per triple, so a small
    relation is worth pulling — until it silently grows."""
    return NetworkModel(
        latency_seconds=0.005,
        per_solution_seconds=0.0001,
        per_triple_seconds=0.000002,
    )


# ---------------------------------------------------------------------------
# Catalog unit behaviour
# ---------------------------------------------------------------------------


def _endpoint():
    ns = peer_namespace(0)
    graph = Graph(name="p0")
    graph.add(Triple(ns.term("a"), ns.knows, ns.term("b")))
    return PeerEndpoint("p0", graph), ns


def test_live_catalog_reads_free_and_fresh():
    endpoint, ns = _endpoint()
    network = NetworkModel()
    catalog = StatisticsCatalog(network, ttl=None)
    stats = NetworkStats()
    catalog.begin_execution(stats)
    tp = TriplePattern(Variable("x"), ns.knows, Variable("y"))
    assert catalog.pattern_count(endpoint, tp) == 1
    endpoint.graph.add(Triple(ns.term("b"), ns.knows, ns.term("c")))
    assert catalog.pattern_count(endpoint, tp) == 2  # live
    assert stats.messages == 0  # and free


def test_ttl_zero_refreshes_every_execution():
    endpoint, ns = _endpoint()
    network = NetworkModel()
    catalog = StatisticsCatalog(network, ttl=0)
    tp = TriplePattern(Variable("x"), ns.knows, Variable("y"))
    for epoch in range(1, 4):
        stats = NetworkStats()
        catalog.begin_execution(stats)
        catalog.pattern_count(endpoint, tp)
        catalog.relation_count(endpoint, tp)
        assert stats.stats_refreshes == 1  # one refresh per endpoint
        assert stats.messages == 1


def test_cached_counts_age_until_ttl_lapses():
    endpoint, ns = _endpoint()
    catalog = StatisticsCatalog(NetworkModel(), ttl=2)
    tp = TriplePattern(Variable("x"), ns.knows, Variable("y"))

    def read(expect_refresh):
        stats = NetworkStats()
        catalog.begin_execution(stats)
        value = catalog.pattern_count(endpoint, tp)
        assert (stats.stats_refreshes == 1) is expect_refresh
        return value

    assert read(True) == 1  # epoch 1 fetches
    endpoint.graph.add(Triple(ns.term("b"), ns.knows, ns.term("c")))
    assert read(False) == 1  # epochs 2 and 3 serve the stale value
    assert read(False) == 1
    assert read(True) == 2  # epoch 4: TTL lapsed, refresh sees growth


def test_catalog_validation():
    with pytest.raises(FederationError, match="ttl"):
        StatisticsCatalog(NetworkModel(), ttl=-1)
    endpoint, ns = _endpoint()
    catalog = StatisticsCatalog(NetworkModel(), ttl=1)
    with pytest.raises(FederationError, match="begin_execution"):
        catalog.pattern_count(
            endpoint, TriplePattern(Variable("x"), ns.knows, Variable("y"))
        )


# ---------------------------------------------------------------------------
# Stale plans: correctness is untouchable
# ---------------------------------------------------------------------------


def test_stale_zero_count_does_not_prune_answers():
    # peer0 publishes a count of 0 for the anchored pattern, then gains
    # matches; a stale executor must still return them (staleness may
    # degrade the plan, never the answer set).
    ns = peer_namespace(0)
    anchor = ns.term("anchor")
    graph = Graph(name="p0")
    graph.add(Triple(anchor, ns.age, ns.term("x")))  # anchor is in schema
    graph.add(Triple(ns.term("a"), ns.knows, ns.term("b")))
    system = RPS.from_graphs({"p0": graph})
    executor = FederatedExecutor(system, stats_ttl=5)
    query = GraphPatternQuery(
        (Variable("y"),),
        make_pattern((anchor, ns.knows, Variable("y"))),
    )
    assert executor.execute(query).rows == set()  # fetches count 0
    graph.add(Triple(anchor, ns.knows, ns.term("c")))
    stale = executor.execute(query)  # within TTL: count still reads 0
    assert stale.stats.stats_refreshes == 0
    assert stale.rows == evaluate_query_star(
        system.stored_database(), query
    )


@pytest.mark.parametrize("strategy", ["adaptive", "parallel"])
def test_stale_answers_equal_single_graph_after_growth(strategy):
    system = federated_rps(peers=2, entities=20, facts=40, seed=7)
    query = federated_path_query(hops=2)
    executor = FederatedExecutor(system, stats_ttl=10)
    executor.execute(query, strategy)  # fetch statistics
    grow_knows_relation(system, peer=0, extra_facts=300, seed=5)
    stale = executor.execute(query, strategy)
    assert stale.stats.stats_refreshes == 0
    assert stale.rows == evaluate_query_star(
        system.stored_database(), query
    )


# ---------------------------------------------------------------------------
# The degradation-and-recovery workload
# ---------------------------------------------------------------------------


def test_stale_plan_degrades_and_recovers():
    """Hub growth flips the fresh pull-vs-ship decision; the stale
    catalog keeps pulling the (now huge) relation until its TTL lapses,
    then recovers the oracle plan — with refreshes charged as real
    messages."""
    model = _scenario_model()
    system = federated_rps(peers=2, entities=20, facts=40, seed=7)
    query = federated_selective_query(entity=3, hops=2)

    stale_ex = FederatedExecutor(system, network=model, stats_ttl=2)
    first = stale_ex.execute(query)  # epoch 1: fetch + plan
    assert first.stats.stats_refreshes == 2  # one per endpoint
    assert first.decisions[0].action == "pull"  # small relation: pull

    grow_knows_relation(system, peer=0, extra_facts=1500, seed=5, hub=9)

    oracle = FederatedExecutor(system, network=model).execute(query)
    assert oracle.decisions[0].action == "ship"  # fresh stats flip

    stale = stale_ex.execute(query)  # epoch 2: within TTL
    assert stale.stats.stats_refreshes == 0
    assert stale.decisions[0].action == "pull"  # yesterday's plan
    # Degradation: the stale plan transfers the whole grown relation.
    assert stale.stats.transfer_units > 10 * oracle.stats.transfer_units

    stale_ex.execute(query)  # epoch 3: still within TTL
    recovered = stale_ex.execute(query)  # epoch 4: TTL lapsed
    assert recovered.stats.stats_refreshes == 2
    assert recovered.decisions[0].action == "ship"
    assert (
        recovered.stats.transfer_units - recovered.stats.stats_refreshes
        <= oracle.stats.transfer_units
    )

    # Answers never depended on the catalog's age.
    expected = evaluate_query_star(system.stored_database(), query)
    for result in (first, oracle, stale, recovered):
        if result is first:
            continue  # pre-growth answer set differs by construction
        assert result.rows == expected


def test_refreshes_are_real_messages_per_endpoint():
    system = federated_rps(peers=3, entities=20, facts=40, seed=7)
    query = federated_path_query(hops=2)
    executor = FederatedExecutor(system, stats_ttl=0)
    baseline = FederatedExecutor(system).execute(query)
    charged = executor.execute(query)
    assert charged.rows == baseline.rows
    # The path touches peer0 and peer1; each paid one refresh message.
    assert charged.stats.stats_refreshes == 2
    assert (
        charged.stats.messages
        == baseline.stats.messages + charged.stats.stats_refreshes
    )
    for endpoint in ("peer0", "peer1"):
        assert (
            charged.stats.per_endpoint_messages[endpoint]
            == baseline.stats.per_endpoint_messages.get(endpoint, 0) + 1
        )


def test_invalidate_plans_forces_a_plan_cache_miss():
    executor = FederatedExecutor(
        federated_rps(peers=3, entities=20, facts=60, seed=7)
    )
    text = federated_union_filter_sparql()
    before = executor.execute(text, "parallel")
    cached = executor.prepare(text)
    stats = executor.plan_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    epoch = executor.catalog.statistics_epoch
    executor.catalog.invalidate_plans()
    assert executor.catalog.statistics_epoch == epoch + 1
    rebuilt = executor.prepare(text)
    assert rebuilt is not cached
    assert executor.plan_cache.stats()["misses"] == stats["misses"] + 1
    assert executor.plan_cache.stats()["hits"] == stats["hits"]
    after = executor.execute(text, "parallel")
    assert after.rows == before.rows
    assert after.stats.messages == before.stats.messages
