"""Algorithm 1: the RDF-level chase computing a universal solution.

The paper's Algorithm 1 (Appendix) builds a peer-to-peer database J from
the stored database D by repeatedly repairing unsatisfied mappings:

* a **graph mapping assertion** Q ⇝ Q′ is repaired per violating tuple
  ``t ∈ Q_J \\ Q′_J``: substitute t into Q′'s free variables and add the
  body triples of Q′, minting a fresh blank node for each existential
  variable of Q′ (the labelled nulls of the data-exchange view);
* an **equivalence mapping** c ≡ₑ c′ is repaired by copying each triple
  context between c and c′ in all three positions, under the
  blank-keeping ``Q*`` semantics.

New blank nodes never enable further assertion triggers through the free
variables (those range over IRIs/literals only — the ``rt`` guards of
the Section-3 encoding), so the chase terminates in polynomially many
steps (Theorem 1).

Two evaluation policies are provided; both run the same rounds, with
the mappings in the same order, and produce the same solution:

* ``semi_naive=False`` — faithful Algorithm 1: in every fixpoint round
  each assertion evaluates Q and Q′ over the whole of J and each
  equivalence rescans every context of its two constants.  It is kept
  as the independent reference the semi-naive policy is tested and
  benchmarked against.
* ``semi_naive=True`` (default) — semi-naive evaluation at the ID level.
  The chase keeps an **insert log** of J's ID triples, numbered in
  insertion order: the stored triples first, then every triple the
  chase adds.  Each assertion, and each of an equivalence's six
  position scans (c's subject, predicate and object contexts copied to
  c′, then c′'s to c), holds a **watermark** into the log, taken when
  it reads J and before its pass adds anything.  An assertion pass
  applies the **delta rule**: for each source conjunct k it seeds
  bindings from the log entries past its watermark that match conjunct
  k and extends them over the whole of J, so only source answers with
  at least one new triple are found.  Each blank-free candidate is then
  checked against the target with its head bound (an ID-level ask)
  instead of evaluating Q′; the violating set is complete before
  anything fires, and it is decoded and fired in the same sorted order
  as the reference, so blank labels match.  An equivalence scan reads
  the graph index for its constant and copies only the triples past
  its watermark, substituting IDs directly.

Why the results are identical: J only grows, and after a pass every
source answer it saw lies in Q′_J and every context it saw has its
copy.  A source answer built only from triples before the watermark, or
a context triple before it, therefore yields no addition under the full
re-check either, so both policies add the same triples in the same
order in every round (property-tested in ``tests/test_peer_chase.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ChaseNonTerminationError
from repro.gpq.evaluation import (
    ask_ids,
    compile_conjunct,
    evaluate_query,
    extend_id_bindings,
)
from repro.rdf.dictionary import IDTriple, TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Term, Variable, fresh_blank_node
from repro.rdf.triples import Triple, TriplePattern
from repro.peers.mappings import GraphMappingAssertion
from repro.peers.system import RPS

__all__ = ["PeerChaseResult", "chase_universal_solution"]


@dataclass
class PeerChaseResult:
    """Outcome of an Algorithm-1 run.

    Attributes:
        solution: the universal solution J.
        stored_triples: |D| — triples copied from the stored database.
        assertion_triples: triples added by graph mapping assertions
            (the *dashed arrows* of Figure 2).
        equivalence_triples: triples added by equivalence mappings
            (the *dotted arrows* of Figure 2).
        assertion_firings: number of assertion repair steps (one per
            violating tuple).
        blank_nodes_created: fresh labelled nulls minted.
        rounds: fixpoint rounds executed.
    """

    solution: Graph
    stored_triples: int = 0
    assertion_triples: int = 0
    equivalence_triples: int = 0
    assertion_firings: int = 0
    blank_nodes_created: int = 0
    rounds: int = 0

    @property
    def inferred_triples(self) -> int:
        return self.assertion_triples + self.equivalence_triples


def chase_universal_solution(
    system: RPS,
    max_rounds: int = 10_000,
    semi_naive: bool = True,
) -> PeerChaseResult:
    """Run Algorithm 1 and return the universal solution for the RPS.

    Args:
        system: the RPS ``(S, G, E)`` with its stored data.
        max_rounds: fixpoint-round budget (Theorem 1 guarantees
            termination; the budget guards against implementation bugs).
        semi_naive: repair from the insert-log delta (see the module
            docstring) instead of re-checking every mapping in full.

    Raises:
        ChaseNonTerminationError: if the round budget is exhausted.
    """
    # The chase mints globally fresh blank nodes (a process-wide counter),
    # so encoding the solution against the shared default dictionary would
    # grow it without bound across runs.  Each universal solution therefore
    # gets its own private dictionary, reclaimed when the solution is.
    solution = Graph(
        system.stored_database(),
        name="universal-solution",
        dictionary=TermDictionary(),
    )
    result = PeerChaseResult(solution=solution, stored_triples=len(solution))
    equivalence_terms = [eq.terms() for eq in system.equivalences]
    delta_chase = (
        _DeltaChase(system.assertions, equivalence_terms, result)
        if semi_naive
        else None
    )

    while True:
        result.rounds += 1
        if result.rounds > max_rounds:
            raise ChaseNonTerminationError(
                f"Algorithm 1 exceeded {max_rounds} rounds", steps=result.rounds
            )
        if delta_chase is not None:
            if not delta_chase.repair_round():
                break
            continue
        new_triples: List[Triple] = []

        for assertion in system.assertions:
            new_triples.extend(_repair_assertion(solution, assertion, result))

        for left, right in equivalence_terms:
            new_triples.extend(
                _repair_equivalence(solution, left, right, result)
            )

        if not new_triples:
            break
    return result


def _repair_assertion(
    solution: Graph, assertion: GraphMappingAssertion, result: PeerChaseResult
) -> List[Triple]:
    """One repair pass for Q ⇝ Q′ (case 2 of Algorithm 1)."""
    added: List[Triple] = []
    source_answers = evaluate_query(solution, assertion.source)
    if not source_answers:
        return added
    target_answers = evaluate_query(solution, assertion.target)
    violating = source_answers - target_answers
    for answer in sorted(violating, key=_tuple_key):
        binding: Dict[Variable, Term] = dict(zip(assertion.target.head, answer))
        for var in sorted(
            assertion.target.existential_variables(), key=lambda v: v.name
        ):
            binding[var] = fresh_blank_node()
            result.blank_nodes_created += 1
        for pattern in assertion.target.conjuncts():
            triple = pattern.to_triple(binding)
            if solution.add(triple):
                added.append(triple)
                result.assertion_triples += 1
        result.assertion_firings += 1
    return added


def _repair_equivalence(
    solution: Graph, left, right, result: PeerChaseResult
) -> List[Triple]:
    """One repair pass for c ≡ₑ c′ (case 3 of Algorithm 1).

    Copies subject, predicate and object contexts both ways using the
    graph indexes directly — equivalent to the six switch blocks of
    Algorithm 1 under the ``Q*`` (blank-keeping) semantics.
    """
    added: List[Triple] = []

    def copy(source_term: Term, target_term: Term) -> None:
        for triple in list(solution.triples(subject=source_term)):
            candidate = Triple(target_term, triple.predicate, triple.object)
            if solution.add(candidate):
                added.append(candidate)
                result.equivalence_triples += 1
        for triple in list(solution.triples(predicate=source_term)):
            candidate = Triple(triple.subject, target_term, triple.object)
            if solution.add(candidate):
                added.append(candidate)
                result.equivalence_triples += 1
        for triple in list(solution.triples(object=source_term)):
            candidate = Triple(triple.subject, triple.predicate, target_term)
            if solution.add(candidate):
                added.append(candidate)
                result.equivalence_triples += 1

    copy(left, right)
    copy(right, left)
    return added


def _tuple_key(answer: Tuple[Term, ...]) -> Tuple:
    return tuple(term.sort_key() for term in answer)


@dataclass
class _AssertionState:
    """Per-assertion state of the semi-naive chase.

    Attributes:
        assertion: the mapping Q ⇝ Q′.
        source: Q's conjuncts.
        source_plans: for each source conjunct k, the order in which
            the other conjuncts extend a binding seeded from k.
        target: Q′'s conjuncts, in the order their triples are added.
        target_plan: Q′'s conjuncts in join order with the head bound.
        existentials: Q′'s existential variables, in minting order.
        mark: insert-log watermark of the last pass.
    """

    assertion: GraphMappingAssertion
    source: List[TriplePattern]
    source_plans: List[List[int]]
    target: List[TriplePattern]
    target_plan: List[TriplePattern]
    existentials: List[Variable]
    mark: int = 0

    @staticmethod
    def of(assertion: GraphMappingAssertion) -> "_AssertionState":
        source = assertion.source.conjuncts()
        target = assertion.target.conjuncts()
        plans = [
            [
                j
                for j in _bound_first(source, source[k].variables())
                if j != k
            ]
            for k in range(len(source))
        ]
        target_plan = [
            target[j] for j in _bound_first(target, assertion.target.head)
        ]
        existentials = sorted(
            assertion.target.existential_variables(), key=lambda v: v.name
        )
        return _AssertionState(
            assertion, source, plans, target, target_plan, existentials
        )


class _DeltaChase:
    """The ``semi_naive=True`` repair passes, driven by an insert log."""

    def __init__(
        self,
        assertions: Sequence[GraphMappingAssertion],
        equivalences: Sequence[Tuple[Term, Term]],
        result: PeerChaseResult,
    ) -> None:
        self.result = result
        self.solution = result.solution
        self.dictionary = self.solution.dictionary
        self.assertions = [_AssertionState.of(a) for a in assertions]
        self.equivalences = equivalences
        #: One watermark per position scan of each equivalence.
        self.equivalence_marks = [[0] * 6 for _ in self.equivalences]
        #: The insert log: every triple of J in insertion order, and its
        #: sequence number (the index into ``order``) by ID triple.
        self.order: List[IDTriple] = list(self.solution.triples_ids())
        self.log: Dict[IDTriple, int] = {
            ids: seq for seq, ids in enumerate(self.order)
        }

    def repair_round(self) -> bool:
        """One fixpoint round; True if it added any triple."""
        size = len(self.order)
        for state in self.assertions:
            self._repair_assertion(state)
        for (left, right), marks in zip(
            self.equivalences, self.equivalence_marks
        ):
            # Algorithm 1's order: c's subject, predicate and object
            # contexts go to c′, then c′'s go to c.
            scans = product(((left, right), (right, left)), range(3))
            for scan, ((source, target), position) in enumerate(scans):
                self._copy(marks, scan, source, target, position)
        return len(self.order) > size

    def _add(self, ids: IDTriple) -> bool:
        if ids in self.log:
            return False
        self.solution.add_id_triples((ids,), self.dictionary)
        self.log[ids] = len(self.order)
        self.order.append(ids)
        return True

    def _repair_assertion(self, state: _AssertionState) -> None:
        """Case 2 of Algorithm 1 over the source answers the delta adds."""
        solution = self.solution
        mark, state.mark = state.mark, len(self.order)
        source = [compile_conjunct(solution, tp) for tp in state.source]
        if None in source:
            return
        head = state.assertion.source.head
        fresh = self.order[mark:]
        rows: Set[Tuple[int, ...]] = set()
        for k, slots in enumerate(source):
            plan = [source[j] for j in state.source_plans[k]]
            for ids in fresh:
                seed = _match(slots, ids)
                if seed is None:
                    continue
                frontier = [seed]
                for other in plan:
                    frontier = [
                        extended
                        for partial in frontier
                        for extended in extend_id_bindings(
                            solution, other, partial
                        )
                    ]
                for binding in frontier:
                    rows.add(tuple(binding[var] for var in head))
        if not rows:
            return

        decode = self.dictionary.decode
        target_head = state.assertion.target.head
        target = [compile_conjunct(solution, tp) for tp in state.target_plan]
        checkable = None not in target
        violating: List[Tuple[Term, ...]] = []
        for row in rows:
            answer = tuple(decode(tid) for tid in row)
            if any(isinstance(term, BlankNode) for term in answer):
                continue
            if checkable and ask_ids(
                solution, target, dict(zip(target_head, row))
            ):
                continue
            violating.append(answer)

        encode = self.dictionary.encode_triple
        result = self.result
        for answer in sorted(violating, key=_tuple_key):
            binding: Dict[Variable, Term] = dict(zip(target_head, answer))
            for var in state.existentials:
                binding[var] = fresh_blank_node()
                result.blank_nodes_created += 1
            for pattern in state.target:
                if self._add(encode(pattern.to_triple(binding))):
                    result.assertion_triples += 1
            result.assertion_firings += 1

    def _copy(
        self,
        marks: List[int],
        scan: int,
        source: Term,
        target: Term,
        position: int,
    ) -> None:
        """One position scan of case 3: copy ``source``'s new contexts."""
        mark, marks[scan] = marks[scan], len(self.order)
        tid = self.solution.term_id(source)
        if tid is None:
            return
        key: List[Optional[int]] = [None, None, None]
        key[position] = tid
        log = self.log
        fresh = [
            ids for ids in self.solution.triples_ids(*key) if log[ids] >= mark
        ]
        if not fresh:
            return
        replacement = self.dictionary.encode(target)
        result = self.result
        for ids in fresh:
            copy = list(ids)
            copy[position] = replacement
            if self._add(tuple(copy)):
                result.equivalence_triples += 1


def _bound_first(
    conjuncts: Sequence[TriplePattern], bound: Iterable[Variable]
) -> List[int]:
    """Greedy join order: most ground-or-bound positions first.

    Returns conjunct indexes; ties keep the written order.
    """
    known = set(bound)
    remaining = list(range(len(conjuncts)))
    order: List[int] = []
    while remaining:
        best = max(
            remaining,
            key=lambda j: (
                sum(
                    1
                    for term in conjuncts[j]
                    if not isinstance(term, Variable) or term in known
                ),
                -j,
            ),
        )
        remaining.remove(best)
        order.append(best)
        known.update(conjuncts[best].variables())
    return order


def _match(slots, ids: IDTriple) -> Optional[Dict[Variable, int]]:
    """The ID binding that maps a compiled conjunct onto ``ids``, if any."""
    binding: Dict[Variable, int] = {}
    for slot, tid in zip(slots, ids):
        if isinstance(slot, Variable):
            if binding.setdefault(slot, tid) != tid:
                return None
        elif slot != tid:
            return None
    return binding
