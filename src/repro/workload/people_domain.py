"""A FOAF-style people/social domain at configurable scale.

A second realistic workload (beyond the film domain) exercising both
mapping kinds: two address-book peers describing overlapping people with
different vocabularies (``vcard:`` vs ``foaf:``), plus a social peer
with friendship edges.  The assertion set includes a *join-shaped*
assertion (two-pattern source body), which — unlike the film example —
induces a non-linear TGD; useful for testing the Proposition-2 boundary.
"""

from __future__ import annotations

import random
from typing import List

from repro.gpq.pattern import make_pattern
from repro.gpq.query import GraphPatternQuery
from repro.rdf.graph import Graph
from repro.rdf.namespaces import FOAF_NS, Namespace, OWL_SAME_AS
from repro.rdf.terms import Literal, Variable
from repro.rdf.triples import Triple
from repro.peers.mappings import (
    GraphMappingAssertion,
    equivalences_from_sameas,
)
from repro.peers.peer import Peer
from repro.peers.schema import PeerSchema
from repro.peers.system import RPS

__all__ = ["VCARD", "SOCIAL", "people_rps", "friend_of_friend_assertion"]

VCARD = Namespace("http://vcard.example.org/")
SOCIAL = Namespace("http://social.example.org/")


def friend_of_friend_assertion() -> GraphMappingAssertion:
    """``(x, knows, z) AND (z, knows, y) ⇝ (x, reachable, y)``.

    A join-shaped source body: the induced TGD has a repeated body
    variable z, so the assertion set is *not* sticky (the paper's
    Section-4 example has exactly this shape).
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    source = GraphPatternQuery(
        (x, y),
        make_pattern((x, SOCIAL.knows, z), (z, SOCIAL.knows, y)),
        name="Qfof",
    )
    target = GraphPatternQuery(
        (x, y), make_pattern((x, SOCIAL.reachable, y)), name="Qreach"
    )
    return GraphMappingAssertion(
        source, target,
        source_peer="social", target_peer="social",
        label="friend-of-friend",
    )


def people_rps(
    people: int = 20,
    knows_edges: int = 40,
    linked_fraction: float = 0.5,
    include_fof: bool = True,
    seed: int = 0,
) -> RPS:
    """Build the people-domain RPS.

    Peers:

    * ``vcard`` — ``vcard:personN vcard:fullName "Person N"``;
    * ``foaf``  — ``foaf:agentN foaf:name "Person N"`` + ages;
    * ``social`` — ``social:userN social:knows social:userM`` edges.

    Mappings:

    * assertion ``(x, vcard:fullName, y) ⇝ (x, foaf:name, y)``
      (vocabulary translation, linear);
    * optional friend-of-friend assertion (join-shaped, non-sticky);
    * sameAs links vcard:personN ≡ foaf:agentN ≡ social:userN for a
      ``linked_fraction`` of people.

    The vcard and foaf schemas are inferred from their data.  The
    social schema also holds ``social:knows`` and ``social:reachable``,
    which the friend-of-friend assertion uses even when no stored
    triple does.
    """
    rng = random.Random(seed)
    vcard_graph = Graph(name="vcard")
    foaf_graph = Graph(name="foaf")
    social_graph = Graph(name="social")

    for i in range(people):
        name_literal = Literal(f"Person {i}")
        vcard_graph.add(
            Triple(VCARD.term(f"person{i}"), VCARD.fullName, name_literal)
        )
        foaf_graph.add(Triple(FOAF_NS.term(f"agent{i}"), FOAF_NS.name, name_literal))
        foaf_graph.add(
            Triple(
                FOAF_NS.term(f"agent{i}"),
                FOAF_NS.age,
                Literal(str(18 + (i * 7) % 60)),
            )
        )
        if rng.random() < linked_fraction:
            vcard_graph.add(
                Triple(
                    VCARD.term(f"person{i}"), OWL_SAME_AS, FOAF_NS.term(f"agent{i}")
                )
            )
        if rng.random() < linked_fraction:
            social_graph.add(
                Triple(
                    SOCIAL.term(f"user{i}"), OWL_SAME_AS, FOAF_NS.term(f"agent{i}")
                )
            )
    users = [SOCIAL.term(f"user{i}") for i in range(people)]
    for _ in range(knows_edges):
        a, b = rng.choice(users), rng.choice(users)
        if a != b:
            social_graph.add(Triple(a, SOCIAL.knows, b))

    x, y = Variable("x"), Variable("y")
    name_translation = GraphMappingAssertion(
        GraphPatternQuery((x, y), make_pattern((x, VCARD.fullName, y))),
        GraphPatternQuery((x, y), make_pattern((x, FOAF_NS.name, y))),
        source_peer="vcard",
        target_peer="foaf",
        label="fullName->name",
    )
    assertions: List[GraphMappingAssertion] = [name_translation]
    if include_fof:
        assertions.append(friend_of_friend_assertion())
    social_schema = PeerSchema(
        "social", social_graph.iris() | {SOCIAL.knows, SOCIAL.reachable}
    )
    peers = [
        Peer.from_graph("vcard", vcard_graph),
        Peer.from_graph("foaf", foaf_graph),
        Peer(social_schema, social_graph, validate=False),
    ]
    graphs = (vcard_graph, foaf_graph, social_graph)
    return RPS(peers, assertions, equivalences_from_sameas(graphs))
