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
from operator import sub

from .algebra import Monomial, MonomialIdeal
from .matching import Matching, _family_cells, validate_matching
from .taylor import (
    DifferentialEntry,
    DifferentialMatrix,
    TaylorComplex,
    cell_members,
    facet_sign,
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
        up = -facet_sign(c, (c ^ tau).bit_length() - 1)
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


def morse_differential(
    tc: TaylorComplex, matching: Matching, family=None
) -> MorseComplex:
    """Assemble the chain complex on the critical cells of ``matching``.

    ``family`` restricts the underlying complex to a facet-closed cell set
    (used for the trimmed construction); it must contain every matched cell.
    The matching is validated first, and a cell of the matching or the
    family outside the complex raises ValueError naming the first one.  The
    entry for a critical pair is the accumulated integer weight times the
    quotient of the lcm labels, and entries that cancel to zero are
    dropped.  A quotient whose exponent difference has a negative entry
    raises ValueError naming both cells.
    """
    report = validate_matching(tc, matching)
    if not report.all_ok:
        raise ValueError(f"matching fails validation: {report}")
    n = tc.n
    if family is None:
        pool = range(1 << n)
        member_set = None
    else:
        pool = _family_cells(tc, family)
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


def verify_complex(mc: MorseComplex) -> bool:
    """Check that consecutive differentials compose to zero.

    Entries are expanded as coefficient times monomial factor and the
    products are accumulated per (row, column, multidegree); every bucket
    must cancel to zero.  Each bucket key is one int.  Every distinct factor
    is packed once, with one bit field per variable: variable ``v`` stores
    ``e - lo`` in ``(2 * (hi - lo)).bit_length()`` bits, where ``lo`` and
    ``hi`` are its least and greatest exponents over all factors.  The sum
    of two fields is at most ``2 * (hi - lo)`` and never carries into the
    next one, so the sum of two packed factors is exactly the packed
    multidegree of their product, negative exponents included.  Row indices
    sit above the exponent fields and column indices above the rows, so
    one addition gives the key of a product.  A factor whose exponent count
    differs from the ideal's variable count raises ValueError.
    """
    differentials = mc.differentials
    size = mc.ideal.context.size
    distinct = {
        entry.monomial_factor.exponents
        for matrix in differentials
        for entry in matrix.entries.values()
    }
    for exponents in distinct:
        if len(exponents) != size:
            raise ValueError(
                f"expected {size} exponents in a monomial factor, got {len(exponents)}"
            )
    fields = []
    row_shift = 0
    for v, column in enumerate(zip(*distinct)):
        lo = min(column)
        width = (2 * (max(column) - lo)).bit_length()
        if width:
            fields.append((v, lo, row_shift))
            row_shift += width
    packed = {
        exponents: sum((exponents[v] - lo) << shift for v, lo, shift in fields)
        for exponents in distinct
    }
    col_shift = row_shift + max((len(m.rows) for m in differentials), default=0).bit_length()

    low_by_mid = low_cols = None
    for matrix in differentials:
        if low_by_mid is not None and low_cols != matrix.rows:
            raise AssertionError("differential bases are misaligned")
        num_rows = len(matrix.rows)
        by_col: dict[int, list] = {}
        high = []
        for (r, c), entry in matrix.entries.items():
            if not 0 <= r < num_rows:
                raise ValueError(f"row index {r} out of range for {num_rows} rows")
            coefficient = entry.coefficient
            factor = packed[entry.monomial_factor.exponents]
            by_col.setdefault(c, []).append((factor + (r << row_shift), coefficient))
            high.append((r, factor + (c << col_shift), coefficient))
        if low_by_mid is not None:
            acc: dict[int, int] = {}
            for mid, high_key, high_coefficient in high:
                for low_key, low_coefficient in low_by_mid.get(mid, ()):
                    key = low_key + high_key
                    acc[key] = acc.get(key, 0) + low_coefficient * high_coefficient
            if any(acc.values()):
                return False
        low_by_mid = by_col
        low_cols = matrix.cols
    return True
