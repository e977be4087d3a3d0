"""Tests for Algorithm 1's two evaluation policies and its golden answers.

The semi-naive chase (``semi_naive=True``, the default) must reproduce
the naive reference (``semi_naive=False``) exactly: the same rounds,
firings, fresh blank nodes and per-mapping triple counts, and the same
solution down to the blank labels.  Each policy runs after a reset of
the blank-label counter, so the two solutions serialise identically.

Also covered: the Listing-1 answers of the paper's Example 2, and the
people domain, whose friend-of-friend assertion is the only join-shaped
(non-sticky) source body among the workloads.
"""

import pytest

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.peers.certain_answers import certain_answers
from repro.peers.chase import chase_universal_solution
from repro.peers.mappings import EquivalenceMapping, GraphMappingAssertion
from repro.peers.system import RPS
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Variable, reset_blank_node_counter
from repro.rdf.triples import Triple
from repro.rewriting.redundancy import deduplicate_answers
from repro.workload.film_domain import (
    PAPER_EXPECTED_ANSWERS,
    PAPER_EXPECTED_NONREDUNDANT,
    example2_rps,
    figure1_namespaces,
    paper_query_text,
    scaled_film_rps,
)
from repro.workload.people_domain import SOCIAL, people_rps
from repro.workload.topologies import chain_rps, cycle_rps, star_rps

EX = Namespace("http://chase.example.org/")
X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def chase_fingerprint(system, semi_naive):
    """Counters plus the sorted N-Triples of one chase run."""
    reset_blank_node_counter()
    result = chase_universal_solution(system, semi_naive=semi_naive)
    counters = (
        result.rounds,
        result.assertion_firings,
        result.blank_nodes_created,
        result.assertion_triples,
        result.equivalence_triples,
    )
    return counters, sorted(triple.n3() for triple in result.solution)


def assert_policies_agree(system):
    """Both policies give identical results; returns the counters."""
    semi_counters, semi_triples = chase_fingerprint(system, True)
    naive_counters, naive_triples = chase_fingerprint(system, False)
    assert semi_counters == naive_counters
    assert semi_triples == naive_triples
    return semi_counters


def translation(source, target):
    """``(x, source, y) ⇝ (x, target, y)`` with no peer names."""
    return GraphMappingAssertion(
        GraphPatternQuery((X, Y), make_pattern((X, source, Y))),
        GraphPatternQuery((X, Y), make_pattern((X, target, Y))),
    )


class TestPoliciesAgree:
    @pytest.mark.parametrize("build", [chain_rps, star_rps, cycle_rps])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_topologies(self, build, seed):
        system = build(4, entities=15, facts=40, seed=seed)
        rounds, firings, _, _, equivalence_triples = assert_policies_agree(
            system
        )
        assert rounds >= 2
        assert firings > 0 and equivalence_triples > 0

    def test_scaled_film(self):
        counters = assert_policies_agree(scaled_film_rps(20))
        rounds, firings, blanks, _, _ = counters
        assert firings > 0 and blanks == firings  # one null per firing

    def test_example2(self):
        assert_policies_agree(example2_rps())

    def test_delta_triple_matching_two_conjuncts(self):
        """A self-loop added in round 1 seeds both conjuncts of a
        ``knows ∘ knows`` source in round 2."""
        graph = Graph(
            [
                Triple(EX.a, EX.link, EX.a),
                Triple(EX.b, EX.knows, EX.a),
                Triple(EX.a, EX.knows, EX.c),
            ]
        )
        friend_of_friend = GraphMappingAssertion(
            GraphPatternQuery(
                (X, Y), make_pattern((X, EX.knows, Z), (Z, EX.knows, Y))
            ),
            GraphPatternQuery((X, Y), make_pattern((X, EX.reach, Y))),
        )
        # The join comes first, so it sees (a knows a) only as delta.
        system = RPS.from_graphs(
            {"p": graph},
            assertions=[friend_of_friend, translation(EX.link, EX.knows)],
        )
        assert assert_policies_agree(system)[:2] == (3, 5)
        solution = chase_universal_solution(system).solution
        reached = {
            (t.subject, t.object) for t in solution.triples(predicate=EX.reach)
        }
        # (b, c) from stored data; the self-loop as the first conjunct
        # gives (a, a) and (a, c), as the second (b, a).
        assert reached == {(EX.b, EX.c), (EX.a, EX.a), (EX.a, EX.c),
                           (EX.b, EX.a)}

    def test_assertion_feeding_its_own_source(self):
        """Transitivity: each pass's firings are the next pass's delta."""
        path = [EX.term(f"n{i}") for i in range(6)]
        graph = Graph(
            Triple(a, EX.knows, b) for a, b in zip(path, path[1:])
        )
        transitivity = GraphMappingAssertion(
            GraphPatternQuery(
                (X, Y), make_pattern((X, EX.knows, Z), (Z, EX.knows, Y))
            ),
            GraphPatternQuery((X, Y), make_pattern((X, EX.knows, Y))),
        )
        system = RPS.from_graphs({"p": graph}, assertions=[transitivity])
        rounds, _, _, assertion_triples, _ = assert_policies_agree(system)
        assert rounds == 4 and assertion_triples == 15 - 5

    def test_equivalence_constant_in_two_positions(self):
        """``(c p c)`` with ``c ≡ c′``: the object scan of c must copy the
        context the subject scan of c added earlier in the same pass."""
        system = RPS.from_graphs(
            {
                "p": Graph([Triple(EX.c, EX.p, EX.c)]),
                "q": Graph([Triple(EX.c2, EX.p, EX.d)]),
            },
            equivalences=[EquivalenceMapping(EX.c, EX.c2)],
        )
        rounds, _, _, _, equivalence_triples = assert_policies_agree(system)
        assert (rounds, equivalence_triples) == (2, 4)
        solution = chase_universal_solution(system).solution
        for s in (EX.c, EX.c2):
            for o in (EX.c, EX.c2, EX.d) if s == EX.c else (EX.c, EX.c2):
                assert Triple(s, EX.p, o) in solution

    def test_people_domain_defaults(self):
        system = people_rps()
        assert [a.label for a in system.assertions] == [
            "fullName->name", "friend-of-friend",
        ]
        rounds, firings, _, _, _ = assert_policies_agree(system)
        assert firings > 0
        solution = chase_universal_solution(system).solution
        assert solution.count(predicate=SOCIAL.reachable) > 0


@pytest.mark.parametrize("semi_naive", [True, False])
def test_listing1_answers(semi_naive):
    """Example 2 / Listing 1: six answers, three without redundancy."""
    system = example2_rps()
    solution = chase_universal_solution(system, semi_naive=semi_naive).solution
    answers = certain_answers(
        system, paper_query_text(), figure1_namespaces(), solution=solution
    )
    assert answers == PAPER_EXPECTED_ANSWERS
    assert deduplicate_answers(system, answers) == PAPER_EXPECTED_NONREDUNDANT
