"""Evaluation of graph patterns and graph pattern queries over a graph.

Implements Definition 1 (the ``⟦·⟧_D`` function) and the two query
semantics of Section 2.1:

* ``Q_D`` — answer tuples restricted to ``I ∪ L`` (blank nodes dropped;
  blanks are labelled nulls carrying only partial information);
* ``Q*_D`` — answer tuples that may contain blank nodes, used by the
  semantics of equivalence mappings.

The evaluator is an index-nested-loop join over the graph's dictionary
encoding: each conjunct is compiled once into ID-level slots (a ground
term becomes its integer ID, a variable stays symbolic), partial answers
bind variables to integer IDs, and the graph's ID indexes enumerate the
matches of each conjunct.  Terms are decoded only for final answer rows,
so intermediate join state never touches Python term objects.  A ground
conjunct term that was never interned prunes the whole pattern to the
empty result before any index work.

Conjunct order does not change the result (join is commutative and
associative — property-tested), so the evaluator greedily picks the most
selective unprocessed conjunct, which is the standard BGP heuristic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, Literal, Term, Variable
from repro.rdf.triples import TriplePattern
from repro.gpq.bindings import SolutionMapping
from repro.gpq.pattern import GraphPattern
from repro.gpq.query import GraphPatternQuery

__all__ = [
    "evaluate_pattern",
    "evaluate_query",
    "evaluate_query_star",
    "ask",
    "match_pattern_bindings",
    "compile_conjunct",
    "extend_id_bindings",
    "ask_ids",
]

#: A compiled conjunct position: an integer ID or a still-free Variable.
_Slot = Union[int, Variable]

#: A partial answer: variable -> integer term ID.
_IDBinding = Dict[Variable, int]


def _estimated_cost(
    graph: Graph, tp: TriplePattern, bound: Set[Variable]
) -> Tuple[int, int]:
    """Cheap selectivity estimate for ordering conjuncts.

    Counts positions that are ground *or already bound*; more bound
    positions first, breaking ties by the predicate's triple count.
    """
    bound_positions = 0
    for term in tp:
        if not isinstance(term, Variable) or term in bound:
            bound_positions += 1
    if isinstance(tp.predicate, Variable):
        predicate_count = len(graph)  # bound at runtime at best; unknown here
    else:
        predicate_count = graph.count(predicate=tp.predicate)
    return (-bound_positions, predicate_count)


def _order_conjuncts(
    graph: Graph, conjuncts: List[TriplePattern], optimize: bool
) -> List[TriplePattern]:
    if not optimize or len(conjuncts) <= 1:
        return list(conjuncts)
    remaining = list(conjuncts)
    ordered: List[TriplePattern] = []
    bound: Set[Variable] = set()
    while remaining:
        best = min(remaining, key=lambda tp: _estimated_cost(graph, tp, bound))
        remaining.remove(best)
        ordered.append(best)
        bound.update(best.variables())
    return ordered


def compile_conjunct(
    graph: Graph, tp: TriplePattern
) -> Optional[Tuple[_Slot, _Slot, _Slot]]:
    """Encode a conjunct's ground positions into dictionary IDs.

    Returns ``None`` when a ground term was never interned (the conjunct
    — hence the whole pattern — cannot match anything), or when the
    subject is a literal (triples cannot have literal subjects).
    """
    if isinstance(tp.subject, Literal):
        return None
    slots: List[_Slot] = []
    for term in tp:
        if isinstance(term, Variable):
            slots.append(term)
        else:
            tid = graph.term_id(term)
            if tid is None:
                return None
            slots.append(tid)
    return (slots[0], slots[1], slots[2])


def extend_id_bindings(
    graph: Graph,
    slots: Tuple[_Slot, _Slot, _Slot],
    partial: _IDBinding,
) -> Iterable[_IDBinding]:
    """Extend one ID-level partial answer with every match of a conjunct."""
    args: List[Optional[int]] = [None, None, None]
    free: List[Tuple[int, Variable]] = []  # (position, variable) still unbound
    for pos, slot in enumerate(slots):
        if isinstance(slot, int):
            args[pos] = slot
        else:
            bound = partial.get(slot)
            if bound is not None:
                args[pos] = bound
            else:
                free.append((pos, slot))
    if not free:
        for _ in graph.triples_ids(args[0], args[1], args[2]):
            yield partial
        return
    if len(free) == 1:
        pos, var = free[0]
        for ids in graph.triples_ids(args[0], args[1], args[2]):
            extended = dict(partial)
            extended[var] = ids[pos]
            yield extended
        return
    # Two or three free positions; a variable may repeat across them
    # (e.g. ``(?x, p, ?x)``), so bind left-to-right and check repeats.
    for ids in graph.triples_ids(args[0], args[1], args[2]):
        extended = dict(partial)
        ok = True
        for pos, var in free:
            tid = ids[pos]
            bound = extended.get(var)
            if bound is None:
                extended[var] = tid
            elif bound != tid:
                ok = False
                break
        if ok:
            yield extended


def _evaluate_ids(
    graph: Graph, conjuncts: Sequence[TriplePattern]
) -> List[_IDBinding]:
    """The join core: all ID-level answers of a conjunct list."""
    frontier: List[_IDBinding] = [{}]
    for tp in conjuncts:
        slots = compile_conjunct(graph, tp)
        if slots is None:
            return []
        next_frontier: List[_IDBinding] = []
        extend = next_frontier.extend
        for partial in frontier:
            extend(extend_id_bindings(graph, slots, partial))
        if not next_frontier:
            return []
        frontier = next_frontier
    return frontier


def match_pattern_bindings(
    graph: Graph, tp: TriplePattern, partial: SolutionMapping
) -> Iterable[SolutionMapping]:
    """Extend a partial mapping with every match of one triple pattern.

    Term-level convenience kept for external callers; the batch evaluator
    below uses the ID-level equivalent internally.
    """
    instantiated = tp.substitute(partial.as_dict())
    for triple in graph.match(instantiated):
        binding = instantiated.matches(triple)
        if binding is None:
            continue
        extended = partial
        ok = True
        for var, term in binding.items():
            bound = extended.get(var)
            if bound is None:
                extended = extended.extend(var, term)
            elif bound != term:
                ok = False
                break
        if ok:
            yield extended


def evaluate_pattern(
    graph: Graph,
    pattern: GraphPattern,
    optimize: bool = True,
) -> Set[SolutionMapping]:
    """Compute ``⟦GP⟧_D``: all mappings µ with ``dom(µ) = var(GP)``
    such that every conjunct instantiated by µ is a triple of ``graph``.

    Args:
        graph: the RDF database ``D``.
        pattern: the graph pattern ``GP``.
        optimize: reorder conjuncts by selectivity (results identical).
    """
    conjuncts = _order_conjuncts(graph, pattern.conjuncts(), optimize)
    decode = graph.decode_id
    return {
        SolutionMapping({var: decode(tid) for var, tid in binding.items()})
        for binding in _evaluate_ids(graph, conjuncts)
    }


def evaluate_query_star(
    graph: Graph, query: GraphPatternQuery, optimize: bool = True
) -> Set[Tuple[Term, ...]]:
    """The blank-keeping semantics ``Q*_D`` (Section 2.1).

    Returns all head tuples, including those containing blank nodes.
    Projection and deduplication happen on ID tuples; only the distinct
    answer rows are decoded.
    """
    conjuncts = _order_conjuncts(graph, query.pattern.conjuncts(), optimize)
    head = query.head
    rows = {
        tuple(binding[var] for var in head)
        for binding in _evaluate_ids(graph, conjuncts)
    }
    decode = graph.decode_id
    return {tuple(decode(tid) for tid in row) for row in rows}


def evaluate_query(
    graph: Graph, query: GraphPatternQuery, optimize: bool = True
) -> Set[Tuple[Term, ...]]:
    """The certain-information semantics ``Q_D``.

    Tuples containing blank nodes (labelled nulls / partial information)
    are dropped, mirroring the treatment of nulls in relational data
    exchange.
    """
    return {
        answer
        for answer in evaluate_query_star(graph, query, optimize=optimize)
        if not any(isinstance(term, BlankNode) for term in answer)
    }


def ask(graph: Graph, query: GraphPatternQuery, optimize: bool = True) -> bool:
    """Boolean evaluation: does the body match at all?

    For arity-0 queries this is the BCQ semantics of Section 4; for
    non-Boolean queries it reports whether ``Q*_D`` is non-empty.
    Short-circuits on the first full match.
    """
    conjuncts = _order_conjuncts(graph, query.pattern.conjuncts(), optimize)
    compiled = []
    for tp in conjuncts:
        slots = compile_conjunct(graph, tp)
        if slots is None:
            return False
        compiled.append(slots)
    return ask_ids(graph, compiled, {})


def ask_ids(
    graph: Graph,
    compiled: Sequence[Tuple[_Slot, _Slot, _Slot]],
    partial: _IDBinding,
    index: int = 0,
) -> bool:
    """Does some match of ``compiled[index:]`` extend ``partial``?

    The ID-level core of :func:`ask`; ``partial`` pre-binds variables
    (e.g. a query head) to term IDs.  Short-circuits on the first match.
    """
    if index == len(compiled):
        return True
    for extended in extend_id_bindings(graph, compiled[index], partial):
        if ask_ids(graph, compiled, extended, index + 1):
            return True
    return False
