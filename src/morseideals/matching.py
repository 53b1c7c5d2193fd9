"""Barile-Macchia, Lyubeznik and trimmed matchings on the Taylor complex.

All constructions consume a :class:`~morseideals.taylor.TaylorComplex` whose
ideal carries the total order (index = position, smallest first).  Matchings
are sets of directed facet edges ``(source, target)`` with
``target = source minus one member``.

The bridge pairing of the Barile-Macchia and trimmed constructions, and of
every order that :mod:`morseideals.search` tries, is decided by one kernel,
:func:`_step`, over bitsets indexed by cell mask: bit ``c`` of an ``int``
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
so the critical cells of cardinality k number the k-cells of the payload
(``C(n, k)``, or those of its family) less ``|targets[k - 1]|`` and
``|targets[k]|``.  Both target sets are final once level k is swept, since
lower levels only add targets below k - 1; the minimal search may therefore
drop an order at the first level whose count differs from the Betti total
without changing any result, and even within that level, once its count
can no longer reach the total (see :func:`_step`).

:func:`_step` advances the state of a prefix by one position; when a level's
live set empties, the next level rescans the prefix.  :func:`_sweep` folds
the step over a whole order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import index, or_
from typing import Iterable, NamedTuple, Sequence

from .algebra import _permutation
from .taylor import TaylorComplex, _outside_error, cell_members


def _facet_error(s: int, t: int) -> ValueError:
    """The error naming an edge ``(s, t)`` whose target is not ``s`` minus
    one member."""
    return ValueError(f"edge ({s:#x}, {t:#x}) is not a facet pair")


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
        edges = set()
        add = edges.add
        for s, t in pairs:
            try:
                add((index(s), index(t)))
            except TypeError:
                raise ValueError(f"edge ({s!r}, {t!r}) has a non-integer endpoint") from None
        # a stable sort keeps the ascending (source, target) order per size
        uniq = sorted(edges)
        uniq.sort(key=lambda e: e[0].bit_count(), reverse=True)
        for s, t in uniq:
            if t & ~s or (s ^ t).bit_count() != 1:
                raise _facet_error(s, t)
        return Matching(tuple(uniq))

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def touched(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(self.edges))

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
    """``(n, rows, levels, counts, target)`` for :func:`_step`; with a
    ``family``, only its cells enter ``rows`` and ``counts``."""
    n = tc.n
    rows = [[0] * n for _ in range(n + 1)]
    counts = [0] * (n + 1)
    table = tc.bridge_table()
    for cell in range(1 << n) if family is None else family:
        k = cell.bit_count()
        counts[k] += 1
        if k >= 3:
            bit = 1 << cell
            for g in table[cell]:
                rows[k][g] |= bit
    levels = tuple(reduce(or_, row, 0) for row in rows)
    return (n, tuple(map(tuple, rows)), levels, tuple(counts), target_ranks)


def _root(work):
    """The sweep state of the empty order; see :func:`_step`."""
    n, _, levels, counts, target = work
    if n >= 3:
        return n, levels[n], 0, 0, counts
    # no level to sweep: the order is decided before it starts
    return None if target is not None and target != counts else (2, 0, 0, 0, counts)


def _step(state, order, p, work, friendly_only=False, record=None):
    """The sweep state of ``order[:p + 1]``, from that of ``order[:p]``.

    A state is ``(k, live, found, paired, ranks)``: the live cells and
    targets of level ``k``, the number of targets of level ``k + 1`` and the
    final counts of the levels above ``k``.  Once level 3 is final, ``k`` is
    2 and ``ranks`` holds for every extension.  Returns None once the prefix
    fails: with ``friendly_only``, at its first duplicate target; with a
    target in ``work``, as below.

    With a target, level ``k`` must end with ``need`` distinct targets,
    a number fixed when the level opens.  Every live cell picks one target
    before the level ends, so the count of distinct targets ends between
    the count so far and that count plus the live cells.  The first only
    grows and the second only shrinks, so the prefix fails at the first
    step that leaves ``need`` outside that range.
    """
    k, live, found, paired, ranks = state
    _, rows, levels, _, target = work
    lo = p
    while True:
        row = rows[k]
        for g in order[lo : p + 1]:
            hit = live & row[g]
            if hit:
                live ^= hit
                hit >>= 1 << g
                if record is not None:
                    record.append((g, hit, found))
                if friendly_only and found & hit:
                    return None
                found |= hit
                if not live:
                    break
        if live:
            if target is not None:
                need, have = ranks[k] - paired - target[k], found.bit_count()
                if have > need or have + live.bit_count() < need:
                    return None
            return k, live, found, paired, ranks
        ranks = list(ranks)
        ranks[k] -= paired  # k-cells taken as targets
        paired = found.bit_count()
        ranks[k] -= paired  # k-cells that are sources
        if target is not None and ranks[k] != target[k]:
            return None
        k -= 1
        if k < 3:
            ranks[2] -= paired
            ranks = tuple(ranks)
            if target is not None and ranks != target:
                return None
            return k, 0, 0, 0, ranks
        live, found, lo = levels[k] & ~found, 0, 0


def _sweep(perm, work, friendly_only=False, record=None):
    """Bridge-pair the Taylor cells under one order, folding :func:`_step`.

    Returns the critical cells per cardinality, or None as soon as the
    order is known to fail: when the payload carries a target and a level's
    count differs from it, or, with ``friendly_only``, at the first
    duplicate target.  Given a ``record`` list, appends
    ``(g, targets, found_before)`` for every generator ``g`` that picks
    cells: the bitset of their targets and that of the targets picked
    before it at the same level.
    """
    state = _root(work)
    for p in range(len(perm)):
        if state is None or state[0] < 3:
            break
        state = _step(state, perm, p, work, friendly_only, record)
    return None if state is None else state[4]


def _bridge_pairing(
    tc: TaylorComplex, order: Sequence[int], family: Iterable[int] | None = None, work=None
) -> list[tuple[int, int, int, bool]]:
    """Every possible edge of the bridge pairing under ``order``.

    ``order`` lists the generator indices smallest first.  Each edge comes
    as ``(position, source, target, kept)``: ``position`` is the place of
    the source's smallest bridge in ``order``, and ``kept`` is False when
    step (3) discards the edge for a smaller bridge with the same target.
    Edges come by descending source cardinality, then ascending source
    mask.  ``family`` restricts the pairing to its cells (cardinality at
    least 3) and must contain every target.  ``work``, the
    :func:`_payload` of ``tc`` and ``family`` without a target, spares
    building it again when many orders share it.
    """
    position = [0] * tc.n
    for p, g in enumerate(order):
        position[g] = p
    members = None if family is None else set(family)
    record: list[tuple[int, int, int]] = []
    _sweep(order, _payload(tc, None, members) if work is None else work, record=record)
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


def bm_matching(tc: TaylorComplex, order: Iterable[int] | None = None, *, work=None) -> Matching:
    """The Barile-Macchia matching of the ideal with respect to its order.

    Given ``order``, a permutation of the generator indices smallest first,
    the matching is that of the reordered ideal, with its cells still in
    the complex's own indexing.  ``work`` is passed to :func:`_bridge_pairing`.
    """
    order = range(tc.n) if order is None else _permutation(order, tc.n)
    matching = _kept_matching(_bridge_pairing(tc, order, work=work))
    # removing a bridge keeps the lcm, so every edge must be homogeneous
    label = tc.cell_label
    for s, t in matching.edges:
        if label[s] != label[t]:
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


def trimmed_matching(tc: TaylorComplex, order2: Iterable[int]) -> Matching:
    """Bridge pairing over the Lyubeznik-critical cells under a second order.

    The Lyubeznik matching is taken with respect to the ideal's own order;
    ``order2`` (a permutation of the generator indices, smallest first) only
    drives the bridge choices of the second pass.  Produced targets must stay
    inside the critical family, which holds because that family is a
    simplicial complex.
    """
    order2 = _permutation(order2, tc.n)
    family = critical_family(tc, lyubeznik_matching(tc))
    return _kept_matching(_bridge_pairing(tc, order2, family))


def _critical_basis(
    tc: TaylorComplex, matching: Matching, family: Iterable[int] | None
) -> list[list[int]]:
    """The untouched cells of ``family`` (every cell by default) by
    cardinality, 0 up to n, each group ascending.

    A family must lie in the complex, be closed under facets and hold every
    matched cell; otherwise ValueError names the first family cell outside
    ``0 .. 2**n - 1`` or the first cell with a facet outside the family.
    """
    n = tc.n
    touched = matching.touched
    pool = range(1 << n)
    if family is not None:
        pool = sorted(set(family))
        if pool and (pool[0] < 0 or pool[-1] >= 1 << n):
            raise _outside_error("family cell", pool, 1 << n)
        members = set(pool)
        for c in pool:
            for j in cell_members(c):
                if c ^ (1 << j) not in members:
                    raise ValueError(f"family is not closed under facets at cell {c:#x}")
        if not touched <= members:
            raise ValueError("matching touches cells outside the family")
    basis: list[list[int]] = [[] for _ in range(n + 1)]
    for c in pool:
        if c not in touched:
            basis[c.bit_count()].append(c)
    return basis


def critical_cells(
    tc: TaylorComplex, matching: Matching, family: Iterable[int] | None = None
) -> list[list[int]]:
    """Untouched cells grouped by cardinality, from n down to 1.

    The empty cell is always critical and reported separately (degree 0), so
    the list has exactly n groups; a group may be empty.  Within a group the
    cells come in ascending bitmask order.  These are the basis of
    :func:`morseideals.morse.morse_differential` without the empty cell,
    under the same checks: the matching is validated first and one that is
    not a homogeneous acyclic matching raises ValueError; a ``family`` cell
    outside the cells ``0 .. 2**n - 1`` of the complex, a family not closed
    under facets and a matched cell outside the family raise ValueError too.
    """
    report = validate_matching(tc, matching)
    if not report.all_ok:
        raise ValueError(f"matching fails validation: {report}")
    return _critical_basis(tc, matching, family)[:0:-1]


def _has_directed_cycle(adjacency: dict[int, list[int]]) -> bool:
    """Kahn peel: True iff the graph has a cycle.  ``adjacency`` maps a node
    to its successors; a node without successors may be left out."""
    indegree: dict[int, int] = {}
    for successors in adjacency.values():
        for w in successors:
            indegree[w] = indegree.get(w, 0) + 1
    ready = [v for v in adjacency if v not in indegree]
    while ready:
        for w in adjacency.get(ready.pop(), ()):
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    return any(indegree.values())


def validate_matching(tc: TaylorComplex, matching: Matching) -> MatchingReport:
    """Check vertex-disjointness, lcm homogeneity and acyclicity.

    ``is_acyclic`` is True only for an acyclic matching: no directed cycle
    runs through the lcm-preserving facet steps and the reversed homogeneous
    matched edges.  A reversed edge ``t -> s`` ends at a source, which is no
    target, so the next step goes down, to a facet ``t' != t`` of ``s`` with
    its lcm.  A cycle has as many ups as downs, so they alternate and every
    ``t'`` is a target again.  One Kahn peel on the targets with the steps
    ``t -> t'`` decides; it takes only the targets with a step.  A step
    never lowers the lcm and raises it at an inhomogeneous edge, so such an
    edge lies on no cycle.

    An endpoint outside the cells ``0 .. 2**n - 1`` of the complex raises
    ValueError naming the first one, and so does an edge that is not a
    facet pair, as in :meth:`Matching.from_pairs`.  The report depends only
    on the edges and the complex, so each complex keeps the report of the
    edge tuple it validated last and returns it while the same edges come
    again, as they do in one ``check``: the Lyubeznik matching validates
    itself, and its callers validate it again.  Keeping one report keeps
    alive no edge tuple that its caller has dropped.  An edge set that
    raises is not kept and raises on every call.
    """
    edges = matching.edges
    report = tc._reports.get(edges)
    if report is not None:
        return report
    label = tc.cell_label
    size = len(label)
    is_homogeneous = True
    for s, t in edges:
        if not (0 <= t < s < size and not t & ~s and (s ^ t).bit_count() == 1):
            if not (0 <= s < size and 0 <= t < size):
                raise _outside_error("matching cell", (s, t), size)
            raise _facet_error(s, t)
        if label[s] != label[t]:
            is_homogeneous = False
    is_matching = len(matching.touched) == 2 * len(edges)
    is_acyclic = False
    if is_matching:
        source_of = matching.source_by_target
        table = tc.bridge_table()
        steps = {}
        for t, s in source_of.items():
            out = []
            for b in table[s]:
                f = s ^ 1 << b
                if f != t and f in source_of:
                    out.append(f)
            if out:
                steps[t] = out
        is_acyclic = not _has_directed_cycle(steps)
    tc._reports.clear()
    report = tc._reports[edges] = MatchingReport(is_matching, is_homogeneous, is_acyclic)
    return report
