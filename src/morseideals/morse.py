"""Morse chain complexes induced by homogeneous acyclic matchings.

The differential of a critical cell is obtained by pushing each facet down
the gradient flow of the matching: critical cells map to themselves, sources
of matched edges die, and the target of a matched edge bounces to the other
facets of its partner with the appropriate signs.  Weight convention: the
reversed matched step from target t up to source c contributes the negated
incidence sign of (c, t); an ordinary facet step contributes its incidence
sign; the empty path contributes 1.  The convention is validated behaviorally
(boundary composes to zero, homology matches the Betti oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .algebra import Monomial, MonomialIdeal
from .matching import Matching, validate_matching
from .taylor import (
    DifferentialEntry,
    DifferentialMatrix,
    TaylorComplex,
    cell_members,
    facet_sign,
    incidence_sign,
    taylor_differential,
)

_PENDING = object()


@dataclass(frozen=True)
class MorseComplex:
    """Critical-cell bases per homological degree plus the differentials.

    ``basis[i]`` lists the critical cells of cardinality ``i`` (ascending
    bitmask); ``differentials[i - 1]`` maps degree ``i`` to degree ``i - 1``.
    """

    ideal: MonomialIdeal
    basis: tuple[tuple[int, ...], ...]
    differentials: tuple[DifferentialMatrix, ...]


def _resolve_transfer(source_of, source_cells, start, memo):
    """Fill ``memo[start]`` with the critical-cell combination of ``start``.

    Iterative so that long gradient flow chains never hit the recursion
    limit.  A pending marker doubles as the cycle guard: meeting one while
    expanding means the matching is not acyclic.
    """
    got = memo.get(start)
    if got is not None:
        if got is _PENDING:
            raise ValueError("matching is not acyclic: gradient flow loops")
        return got

    def open_frame(tau):
        # True when tau resolved without needing a frame
        if tau in source_cells:
            memo[tau] = {}
            return True
        c = source_of.get(tau)
        if c is None:
            memo[tau] = {tau: 1}
            return True
        memo[tau] = _PENDING
        up = -incidence_sign(c, tau)
        facets = [
            (up * facet_sign(c, j), c ^ (1 << j))
            for j in cell_members(c)
            if c ^ (1 << j) != tau
        ]
        stack.append([tau, facets, 0, {}])
        return False

    stack: list[list] = []
    if open_frame(start):
        return memo[start]
    while stack:
        frame = stack[-1]
        tau, facets, _, acc = frame
        suspended = False
        while frame[2] < len(facets):
            sign, facet = facets[frame[2]]
            part = memo.get(facet)
            if part is None:
                if not open_frame(facet):
                    suspended = True
                    break
                continue  # resolved inline; accumulate on the next pass
            if part is _PENDING:
                raise ValueError("matching is not acyclic: gradient flow loops")
            for crit, weight in part.items():
                acc[crit] = acc.get(crit, 0) + sign * weight
            frame[2] += 1
        if suspended:
            continue
        memo[tau] = {k: v for k, v in acc.items() if v}
        stack.pop()
    return memo[start]


def transfer(tc: TaylorComplex, matching: Matching, cell: int, memo: dict | None = None) -> dict[int, int]:
    """Integer combination of same-cardinality critical cells reached by the
    gradient flow starting at ``cell``.  The matching must be homogeneous and
    acyclic; a non-acyclic matching trips the cycle guard."""
    if memo is None:
        memo = {}
    return dict(_resolve_transfer(matching.source_by_target, matching.source_cells, cell, memo))


def enumerate_gradient_paths(tc: TaylorComplex, matching: Matching, cell: int):
    """Yield ``(critical_cell, weight)`` once per gradient path from ``cell``.

    Exponential path expansion used as a debug cross-check of the memoized
    transfer on small ideals.
    """
    source_of = matching.source_by_target
    source_cells = matching.source_cells

    def walk(tau, weight, seen):
        if tau in source_cells:
            return
        c = source_of.get(tau)
        if c is None:
            yield tau, weight
            return
        if tau in seen:
            raise ValueError("matching is not acyclic: gradient path loops")
        up = -incidence_sign(c, tau)
        for j in cell_members(c):
            facet = c ^ (1 << j)
            if facet == tau:
                continue
            yield from walk(facet, weight * up * incidence_sign(c, facet), seen | {tau})

    yield from walk(cell, 1, frozenset())


def morse_differential(
    tc: TaylorComplex, matching: Matching, family=None
) -> MorseComplex:
    """Assemble the chain complex on the critical cells of ``matching``.

    ``family`` restricts the underlying complex to a facet-closed cell set
    (used for the trimmed construction); it must contain every matched cell.
    The matching is validated first; the entry for a critical pair is the
    accumulated integer weight times the quotient of the lcm labels, and
    entries that cancel to zero are dropped.  A quotient whose exponent
    difference has a negative entry raises ValueError naming both cells.
    """
    report = validate_matching(tc, matching)
    if not report.all_ok:
        raise ValueError(f"matching fails validation: {report}")
    n = tc.n
    if family is None:
        pool = range(1 << n)
        member_set = None
    else:
        pool = sorted(set(family))
        member_set = set(pool)
        for c in pool:
            for j in cell_members(c):
                if c ^ (1 << j) not in member_set:
                    raise ValueError(f"family is not closed under facets at cell {c:#x}")
        for s, t in matching.edges:
            if s not in member_set or t not in member_set:
                raise ValueError("matching touches cells outside the family")

    touched = matching.touched
    basis: list[list[int]] = [[] for _ in range(n + 1)]
    for c in pool:
        if c not in touched:
            basis[c.bit_count()].append(c)

    source_of = matching.source_by_target
    source_cells = matching.source_cells
    lcms = tc.lcms
    context = tc.ideal.context
    factors: dict[tuple[int, ...], Monomial] = {}  # one instance per distinct factor
    memo: dict = {}
    differentials = []
    for i in range(1, n + 1):
        rows = tuple(basis[i - 1])
        cols = tuple(basis[i])
        row_index = {c: k for k, c in enumerate(rows)}
        entries: dict[tuple[int, int], DifferentialEntry] = {}
        for cidx, sigma in enumerate(cols):
            top = lcms[sigma].exponents
            acc: dict[int, int] = {}
            for j in cell_members(sigma):
                sign = facet_sign(sigma, j)
                for crit, weight in _resolve_transfer(
                    source_of, source_cells, sigma ^ (1 << j), memo
                ).items():
                    acc[crit] = acc.get(crit, 0) + sign * weight
            for crit, weight in acc.items():
                if weight:
                    exponents = tuple(map(sub, top, lcms[crit].exponents))
                    if min(exponents) < 0:
                        raise ValueError(
                            f"lcm of cell {crit:#x} does not divide the lcm of cell {sigma:#x}"
                        )
                    factor = factors.get(exponents)
                    if factor is None:
                        factor = factors[exponents] = Monomial.trusted(context, exponents)
                    entries[(row_index[crit], cidx)] = DifferentialEntry(weight, factor)
        differentials.append(DifferentialMatrix(rows, cols, entries))
    return MorseComplex(tc.ideal, tuple(tuple(b) for b in basis), tuple(differentials))


def taylor_chain_complex(tc: TaylorComplex) -> MorseComplex:
    """The full Taylor complex packaged with its boundary matrices."""
    n = tc.n
    basis = tuple(tuple(tc.cells_of_cardinality(i)) for i in range(n + 1))
    return MorseComplex(tc.ideal, basis, tuple(taylor_differential(tc, i) for i in range(1, n + 1)))


def ranks(mc: MorseComplex) -> list[int]:
    """Basis sizes per degree, 0 up to n (trailing zeros included)."""
    return [len(b) for b in mc.basis]


def is_minimal(mc: MorseComplex) -> bool:
    """True iff no differential entry carries the monomial factor 1."""
    return all(
        not entry.monomial_factor.is_one()
        for matrix in mc.differentials
        for entry in matrix.entries.values()
    )


def complex_to_json(mc: MorseComplex) -> dict:
    """JSON-ready encoding: basis cells as generator-string lists per degree,
    differentials as sparse (row, col, coefficient, monomial) quadruples."""
    strings = mc.ideal.generator_strings

    def encode(cell: int) -> list[str]:
        return [strings[i] for i in cell_members(cell)]

    return {
        "basis": [[encode(c) for c in degree] for degree in mc.basis],
        "differentials": [
            [
                [r, c, entry.coefficient, str(entry.monomial_factor)]
                for (r, c), entry in sorted(matrix.entries.items())
            ]
            for matrix in mc.differentials
        ],
    }


def verify_complex(mc: MorseComplex) -> bool:
    """Check that consecutive differentials compose to zero.

    Entries are expanded as coefficient times monomial factor and the
    products are accumulated per (row, column, multidegree), the multidegree
    being the summed exponent vectors of the two factors; every bucket must
    cancel to zero.
    """
    for low, high in zip(mc.differentials, mc.differentials[1:]):
        if low.cols != high.rows:
            raise AssertionError("differential bases are misaligned")
        low_by_mid: dict[int, list] = {}
        for (r, mid), entry in low.entries.items():
            low_by_mid.setdefault(mid, []).append(
                (r, entry.coefficient, entry.monomial_factor.exponents)
            )
        acc: dict = {}
        for (mid, c), high_entry in high.entries.items():
            coefficient = high_entry.coefficient
            exponents = high_entry.monomial_factor.exponents
            for r, low_coefficient, low_exponents in low_by_mid.get(mid, ()):
                key = (r, c, tuple(map(add, low_exponents, exponents)))
                acc[key] = acc.get(key, 0) + low_coefficient * coefficient
        if any(acc.values()):
            return False
    return True
