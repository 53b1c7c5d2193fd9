"""Barile-Macchia, Lyubeznik and trimmed matchings on the Taylor complex.

All constructions consume a :class:`~morseideals.taylor.TaylorComplex` whose
ideal carries the total order (index = position, smallest first).  Matchings
are sets of directed facet edges ``(source, target)`` with
``target = source minus one member``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .taylor import TaylorComplex, cardinality, cell_members


class PossibleEdge(NamedTuple):
    """A pre-deduplication edge: smallest bridge position, cell, cell minus bridge."""

    sbridge_position: int
    source: int
    target: int


@dataclass(frozen=True)
class Matching:
    """An immutable set of directed facet edges.

    Vertex-disjointness is reported by :func:`validate_matching` rather than
    enforced here, so adversarial edge sets can be inspected.  Edges are kept
    in canonical order: descending source cardinality, then ascending source
    bitmask.
    """

    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> Matching:
        uniq = sorted(
            {(int(s), int(t)) for s, t in pairs},
            key=lambda e: (-cardinality(e[0]), e[0], e[1]),
        )
        for s, t in uniq:
            if t & ~s or (s ^ t).bit_count() != 1:
                raise ValueError(f"edge ({s:#x}, {t:#x}) is not a facet pair")
        return Matching(tuple(uniq))

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def touched(self) -> frozenset[int]:
        return frozenset(c for e in self.edges for c in e)

    @cached_property
    def source_cells(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.edges)

    @cached_property
    def source_by_target(self) -> dict[int, int]:
        return {t: s for s, t in self.edges}


class MatchingReport(NamedTuple):
    is_matching: bool
    is_homogeneous: bool
    is_acyclic: bool

    @property
    def all_ok(self) -> bool:
        return self.is_matching and self.is_homogeneous and self.is_acyclic


def _sorted_sweep_order(cells: Iterable[int]) -> list[int]:
    # descending cardinality, ascending mask within each cardinality
    return sorted(cells, key=lambda c: (-c.bit_count(), c))


def _possible_edges_in_order(
    tc: TaylorComplex,
    ordered_cells: Sequence[int],
    family_set: set[int] | frozenset[int] | None = None,
    positions: Sequence[int] | None = None,
) -> list[PossibleEdge]:
    """Run steps (1)-(2) of the bridge-pairing sweep over ``ordered_cells``.

    ``ordered_cells`` must come in descending cardinality; the order within a
    cardinality level never changes the outcome because a pick only removes a
    cell of strictly smaller cardinality.  When ``positions`` is given the
    smallest bridge is taken with respect to those positions instead of the
    generator indices (used by the trimmed construction and order searches).
    """
    removed: set[int] = set()
    out: list[PossibleEdge] = []
    ideal_gens = tc.ideal.generators
    for sigma in ordered_cells:
        if sigma in removed:
            continue
        found = tc.bridges(sigma)
        if not found:
            continue
        if positions is None:
            sb = found[0]
            pos = sb
        else:
            sb = min(found, key=positions.__getitem__)
            pos = positions[sb]
        target = sigma ^ (1 << sb)
        if family_set is not None and target not in family_set:
            members = ", ".join(str(ideal_gens[i]) for i in cell_members(sigma))
            raise ValueError(
                f"family is not closed under smallest-bridge deletion at cell {{{members}}}"
            )
        removed.add(target)
        out.append(PossibleEdge(pos, sigma, target))
    return out


def possible_edges_with_positions(
    tc: TaylorComplex, family: Iterable[int] | None = None
) -> list[PossibleEdge]:
    """All bridge pairings before duplicate targets are resolved.

    Cells are processed by descending cardinality and ascending bitmask; the
    output keeps that order.  ``family`` restricts the sweep to the given
    cells (cardinality at least 3) and must contain every produced target.
    """
    if family is None:
        cells = [c for c in range(1 << tc.n) if c.bit_count() >= 3]
        ordered = sorted(cells, key=lambda c: -c.bit_count())  # stable: keeps masks ascending
        return _possible_edges_in_order(tc, ordered)
    family_set = set(family)
    ordered = _sorted_sweep_order(c for c in family_set if c.bit_count() >= 3)
    return _possible_edges_in_order(tc, ordered, family_set)


def possible_edges(tc: TaylorComplex, family: Iterable[int] | None = None) -> list[tuple[int, int]]:
    return [(pe.source, pe.target) for pe in possible_edges_with_positions(tc, family)]


def _resolve_duplicate_targets(edges: Iterable[PossibleEdge]) -> Matching:
    """Step (3): among edges sharing a target, keep the smallest bridge."""
    best: dict[int, PossibleEdge] = {}
    for pe in edges:
        cur = best.get(pe.target)
        if cur is None or pe.sbridge_position < cur.sbridge_position:
            best[pe.target] = pe
        elif pe.sbridge_position == cur.sbridge_position and pe.source != cur.source:
            # impossible: the source is the target plus the bridge generator
            raise AssertionError(
                f"distinct possible edges share target {pe.target:#x} and bridge position"
            )
    matching = Matching.from_pairs((pe.source, pe.target) for pe in best.values())
    if len(matching.touched) != 2 * len(matching):
        raise AssertionError("bridge-pairing construction produced a non-matching")
    return matching


def bm_matching(tc: TaylorComplex, family: Iterable[int] | None = None) -> Matching:
    """The Barile-Macchia matching of the ideal with respect to its order."""
    matching = _resolve_duplicate_targets(possible_edges_with_positions(tc, family))
    # removing a bridge keeps the lcm, so every edge must be homogeneous
    for s, t in matching.edges:
        if tc.lcm(s) is not tc.lcm(t):
            raise AssertionError(f"bridge pairing produced an inhomogeneous edge ({s:#x}, {t:#x})")
    return matching


def is_bridge_friendly(tc: TaylorComplex) -> bool:
    """True iff no possible edge is discarded in the duplicate-target step."""
    possible = possible_edges_with_positions(tc)
    matching = _resolve_duplicate_targets(possible)
    return {(pe.source, pe.target) for pe in possible} == matching.edge_set


def lyubeznik_matching(tc: TaylorComplex) -> Matching:
    """The Lyubeznik matching of the ideal with respect to its order.

    List a cell in descending order.  Its value is the depth of the deepest
    prefix whose lcm a generator strictly below the prefix's last member
    divides, and its minimal divisor is the smallest generator dividing that
    lcm; a cell without such a prefix has value minus infinity.  Every cell
    with a finite value contributes the unordered pair obtained by adding and
    removing its minimal divisor; duplicates collapse.  The result is
    validated and a failure raises, since it would signal a bug in the value
    computation rather than bad input.
    """
    masks = tc.divisor_masks()
    pairs: set[tuple[int, int]] = set()
    for cell in range(1, 1 << tc.n):
        # prefixes deepest first: drop the lowest member until a generator
        # below it divides the prefix lcm; the lowest such is the divisor
        prefix = cell
        while prefix:
            low = prefix & -prefix
            below = masks[prefix] & (low - 1)
            if below:
                ml = below & -below
                pairs.add((cell | ml, cell & ~ml))
                break
            prefix ^= low
    matching = Matching.from_pairs(pairs)
    report = validate_matching(tc, matching)
    if not report.all_ok:
        raise AssertionError(f"Lyubeznik construction produced an invalid matching: {report}")
    return matching


def critical_family(tc: TaylorComplex, matching: Matching) -> list[int]:
    """Every cell untouched by the matching, the empty cell included."""
    touched = matching.touched
    return [c for c in range(1 << tc.n) if c not in touched]


def trimmed_matching(tc: TaylorComplex, order2: Sequence[int]) -> Matching:
    """Bridge pairing over the Lyubeznik-critical cells under a second order.

    The Lyubeznik matching is taken with respect to the ideal's own order;
    ``order2`` (a permutation of the generator indices, smallest first) only
    drives the bridge choices of the second pass.  Produced targets must stay
    inside the critical family, which holds because that family is a
    simplicial complex.
    """
    order2 = tuple(order2)
    if sorted(order2) != list(range(tc.n)):
        raise ValueError(f"{order2} is not a permutation of 0..{tc.n - 1}")
    positions = [0] * tc.n
    for p, i in enumerate(order2):
        positions[i] = p
    family = critical_family(tc, lyubeznik_matching(tc))
    family_set = set(family)
    ordered = _sorted_sweep_order(c for c in family if c.bit_count() >= 3)
    edges = _possible_edges_in_order(tc, ordered, family_set, positions)
    return _resolve_duplicate_targets(edges)


def critical_cells(
    tc: TaylorComplex, matching: Matching, family: Iterable[int] | None = None
) -> list[list[int]]:
    """Untouched cells grouped by cardinality, from n down to 1.

    The empty cell is always critical and reported separately (degree 0), so
    the list has exactly n groups; a group may be empty.  Within a group the
    cells come in ascending bitmask order.
    """
    touched = matching.touched
    n = tc.n
    groups: list[list[int]] = [[] for _ in range(n)]
    pool = range(1 << n) if family is None else sorted(set(family))
    for c in pool:
        k = c.bit_count()
        if k and c not in touched:
            groups[n - k].append(c)
    return groups


def _has_directed_cycle(nodes: Sequence[int], adjacency: dict[int, list[int]]) -> bool:
    indegree = {v: 0 for v in nodes}
    for v in nodes:
        for w in adjacency.get(v, ()):
            indegree[w] += 1
    ready = [v for v in nodes if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in adjacency.get(v, ()):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen != len(nodes)


def validate_matching(tc: TaylorComplex, matching: Matching) -> MatchingReport:
    """Check vertex-disjointness, lcm homogeneity and acyclicity.

    Acyclicity is decided per lcm class: reversed matched edges preserve the
    lcm (for homogeneous matchings) and unmatched facet steps weakly decrease
    it, so any directed cycle would have to stay inside one class.  Each class
    graph uses the reversed matched edges plus the lcm-preserving facet edges
    and is tested with a topological peel.
    """
    edges = matching.edges
    endpoint_list = [c for e in edges for c in e]
    is_matching = len(set(endpoint_list)) == len(endpoint_list)
    is_homogeneous = all(tc.lcm(s) is tc.lcm(t) for s, t in edges)

    ups_by_class: dict = {}
    for s, t in edges:
        if tc.lcm(s) is tc.lcm(t):
            ups_by_class.setdefault(tc.lcm(s), []).append((s, t))

    bridge_table = tc.bridge_table()
    edge_set = matching.edge_set
    is_acyclic = True
    for label, nodes in tc.classes().items():
        if len(nodes) < 2:
            continue
        adjacency: dict[int, list[int]] = {}
        for s in nodes:
            for b in bridge_table[s]:
                t = s ^ (1 << b)
                if (s, t) not in edge_set:
                    adjacency.setdefault(s, []).append(t)
        for s, t in ups_by_class.get(label, ()):
            adjacency.setdefault(t, []).append(s)
        if _has_directed_cycle(nodes, adjacency):
            is_acyclic = False
            break
    return MatchingReport(is_matching, is_homogeneous, is_acyclic)
