"""Barile-Macchia, Lyubeznik and trimmed matchings on the Taylor complex.

All constructions consume a :class:`~morseideals.taylor.TaylorComplex` whose
ideal carries the total order (index = position, smallest first).  Matchings
are sets of directed facet edges ``(source, target)`` with
``target = source minus one member``.

The bridge pairing of the Barile-Macchia and trimmed constructions, and of
every order that :mod:`morseideals.search` tries, is decided by one kernel,
:func:`_sweep`, over bitsets indexed by cell mask: bit ``c`` of an ``int``
stands for cell ``c``.  The payload holds, for each cardinality ``k >= 3``
and each generator ``g``, the bitset ``rows[k][g]`` of the k-cells that have
``g`` as a bridge, and the union ``levels[k]`` of these rows.  The sweep goes
through the levels ``k = n .. 3``.  The live k-cells are those with a bridge
that no larger cell has taken as its target.  Going through the generators
in the order's positions, the cells ``S`` among them that have ``g`` as a
bridge have ``g`` as their smallest bridge; they leave the live set, and
their targets, the cells minus ``g``, are the bitset ``S >> 2**g``.  A
target that is met twice at a level is a discard of step (3), so the order
is not bridge-friendly; the first generator to meet a target has the
smallest bridge, and its edge is the one kept.  Each target keeps one edge,
so the critical cells of cardinality k number
``C(n, k) - |targets[k - 1]| - |targets[k]|``.  Both target sets are final
once level k is swept, since lower levels only add targets below k - 1; the
minimal search may therefore drop an order at the first level whose count
differs from the Betti total without changing any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .taylor import TaylorComplex, cell_members


def _require_facet_pair(s: int, t: int) -> None:
    if t & ~s or (s ^ t).bit_count() != 1:
        raise ValueError(f"edge ({s:#x}, {t:#x}) is not a facet pair")


def _outside_error(what: str, cells: Iterable[int], size: int) -> ValueError:
    """The error naming the first of ``cells`` outside ``0 .. size - 1``."""
    outside = next(c for c in cells if not 0 <= c < size)
    return ValueError(f"{what} cell {outside} is outside the cells 0..{size - 1} of the complex")


def _family_cells(tc: TaylorComplex, family: Iterable[int]) -> list[int]:
    """The distinct cells of ``family``, ascending; a cell outside the
    complex raises ValueError naming the first one."""
    pool = sorted(set(family))
    size = 1 << tc.n
    if pool and (pool[0] < 0 or pool[-1] >= size):
        raise _outside_error("family", pool, size)
    return pool


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
            key=lambda e: (-int.bit_count(e[0]), e[0], e[1]),
        )
        for s, t in uniq:
            _require_facet_pair(s, t)
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


def _payload(tc, target_ranks, family=None):
    """``(n, rows, levels, counts, target)`` for :func:`_sweep`; with a
    ``family``, only its cells enter ``rows``."""
    n = tc.n
    rows = [[0] * n for _ in range(n + 1)]
    table = tc.bridge_table()
    for cell in range(1 << n) if family is None else family:
        k = cell.bit_count()
        if k >= 3:
            bit = 1 << cell
            for g in table[cell]:
                rows[k][g] |= bit
    levels = tuple(reduce(or_, row, 0) for row in rows)
    counts = tuple(math.comb(n, k) for k in range(n + 1))
    return (n, tuple(map(tuple, rows)), levels, counts, target_ranks)


def _sweep(perm, work, friendly_only=False, record=None):
    """Bridge-pair the Taylor cells under one order; see the module docstring.

    Returns ``(ranks, friendly)``: the critical cells per cardinality and
    whether no possible edge is discarded.  Returns None as soon as the
    order is known to fail: when the payload carries a target and a level's
    count differs from it, or, with ``friendly_only``, at the first
    duplicate target.  Given a ``record`` list, appends
    ``(g, targets, found_before)`` for every generator ``g`` that picks
    cells: the bitset of their targets and that of the targets picked
    before it at the same level.
    """
    n, rows, levels, counts, target = work
    ranks = list(counts)
    friendly = True
    below = 0  # targets in level k, picked by the sweep of level k + 1
    paired = 0  # their number
    for k in range(n, 2, -1):
        live = levels[k] & ~below
        row = rows[k]
        found = 0
        for g in perm:
            hit = live & row[g]
            if hit:
                live ^= hit
                hit >>= 1 << g
                if record is not None:
                    record.append((g, hit, found))
                if found & hit:
                    if friendly_only:
                        return None
                    friendly = False
                found |= hit
                if not live:
                    break
        ranks[k] -= paired  # k-cells taken as targets
        below, paired = found, found.bit_count()
        ranks[k] -= paired  # k-cells that are sources
        if target is not None and ranks[k] != target[k]:
            return None
    if paired:
        ranks[2] -= paired
    ranks = tuple(ranks)
    if target is not None and ranks != target:
        return None
    return ranks, friendly


def _bridge_pairing(
    tc: TaylorComplex, order: Sequence[int], family: Iterable[int] | None = None
) -> list[tuple[int, int, int, bool]]:
    """Every possible edge of the bridge pairing under ``order``.

    ``order`` lists the generator indices smallest first.  Each edge comes
    as ``(position, source, target, kept)``: ``position`` is the place of
    the source's smallest bridge in ``order``, and ``kept`` is False when
    step (3) discards the edge for a smaller bridge with the same target.
    Edges come by descending source cardinality, then ascending source
    mask.  ``family`` restricts the pairing to its cells (cardinality at
    least 3) and must contain every target.
    """
    position = [0] * tc.n
    for p, g in enumerate(order):
        position[g] = p
    members = None if family is None else set(family)
    record: list[tuple[int, int, int]] = []
    _sweep(order, _payload(tc, None, members), record=record)
    edges = []
    for g, targets, found_before in record:
        bit = 1 << g
        while targets:
            low = targets & -targets
            target = low.bit_length() - 1
            edges.append((position[g], target | bit, target, not (low & found_before)))
            targets ^= low
    edges.sort(key=lambda e: (-e[1].bit_count(), e[1]))
    if members is not None:
        for _, source, target, _ in edges:
            if target not in members:
                gens = tc.ideal.generators
                names = ", ".join(str(gens[i]) for i in cell_members(source))
                raise ValueError(
                    f"family is not closed under smallest-bridge deletion at cell {{{names}}}"
                )
    return edges


def _kept_matching(edges: Iterable[tuple[int, int, int, bool]]) -> Matching:
    """Step (3): the edges that no smaller bridge beat to their target."""
    matching = Matching.from_pairs((s, t) for _, s, t, kept in edges if kept)
    if len(matching.touched) != 2 * len(matching):
        raise AssertionError("bridge-pairing construction produced a non-matching")
    return matching


def possible_edges_with_positions(tc: TaylorComplex) -> list[PossibleEdge]:
    """All bridge pairings before duplicate targets are resolved, by
    descending source cardinality and then ascending source mask."""
    return [PossibleEdge(p, s, t) for p, s, t, _ in _bridge_pairing(tc, range(tc.n))]


def bm_matching(tc: TaylorComplex, order: Sequence[int] | None = None) -> Matching:
    """The Barile-Macchia matching of the ideal with respect to its order.

    Given ``order``, a permutation of the generator indices smallest first,
    the matching is that of the reordered ideal, with its cells still in
    the complex's own indexing.
    """
    if order is None:
        order = range(tc.n)
    elif sorted(order) != list(range(tc.n)):
        raise ValueError(f"{tuple(order)} is not a permutation of 0..{tc.n - 1}")
    matching = _kept_matching(_bridge_pairing(tc, order))
    # removing a bridge keeps the lcm, so every edge must be homogeneous
    for s, t in matching.edges:
        if tc.lcm(s) is not tc.lcm(t):
            raise AssertionError(f"bridge pairing produced an inhomogeneous edge ({s:#x}, {t:#x})")
    return matching


def is_bridge_friendly(tc: TaylorComplex) -> bool:
    """True iff no possible edge is discarded in the duplicate-target step."""
    return _sweep(range(tc.n), _payload(tc, None), friendly_only=True) is not None


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
    family = critical_family(tc, lyubeznik_matching(tc))
    return _kept_matching(_bridge_pairing(tc, order2, family))


def critical_cells(
    tc: TaylorComplex, matching: Matching, family: Iterable[int] | None = None
) -> list[list[int]]:
    """Untouched cells grouped by cardinality, from n down to 1.

    The empty cell is always critical and reported separately (degree 0), so
    the list has exactly n groups; a group may be empty.  Within a group the
    cells come in ascending bitmask order.  A ``family`` cell outside the
    cells ``0 .. 2**n - 1`` of the complex raises ValueError naming the
    first one.
    """
    touched = matching.touched
    n = tc.n
    groups: list[list[int]] = [[] for _ in range(n)]
    pool = range(1 << n) if family is None else _family_cells(tc, family)
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
    and is tested with a topological peel.  One pass over the edges checks
    their cells and groups the homogeneous ones by class.  An endpoint
    outside the cells ``0 .. 2**n - 1`` of the complex raises ValueError
    naming the first one, and so does an edge that is not a facet pair, as
    in :meth:`Matching.from_pairs`.
    """
    edges = matching.edges
    lcms = tc.lcms
    size = len(lcms)
    is_homogeneous = True
    ups_by_class: dict = {}
    for s, t in edges:
        if not (0 <= s < size and 0 <= t < size):
            raise _outside_error("matching", (s, t), size)
        _require_facet_pair(s, t)
        label = lcms[s]
        if lcms[t] is label:
            ups_by_class.setdefault(label, []).append((s, t))
        else:
            is_homogeneous = False
    is_matching = len(matching.touched) == 2 * len(edges)

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
