"""Morse chain complexes induced by homogeneous acyclic matchings.

The differential of a critical cell pushes each facet down the gradient
flow of the matching: critical cells map to themselves, sources of matched
edges die, and the target of a matched edge bounces to the other facets of
its partner.  The reversed step from target t up to source c weighs the
negated incidence sign of (c, t), a facet step its incidence sign, and the
empty path 1; d^2 = 0 and homology equal to the Betti oracle validate this
convention.  The flow is resolved on a plain two-visit stack of cells with
one memo per complex, shared by every facet (:func:`_resolve_transfer`);
a critical or source facet needs no walk, so a column adds its sign or
nothing directly.

Each entry's factor is the quotient of two lcm labels.  The Taylor complex
packs its labels into one int each, indexed like them, once for all its
Morse complexes (:meth:`~morseideals.taylor.TaylorComplex.packed_labels`):
variable ``v`` gets a field as wide as its largest exponent, plus one guard
bit on top.  Setting every guard bit of the upper label and subtracting the
lower one gives the packed quotient; a field whose exponent would be
negative borrows its own guard bit and no other, so the quotient exists
exactly when every guard bit survives.  Entries are shared per (quotient,
weight) by every Morse complex of one Taylor complex; a valid quotient keeps
every guard bit, so no shared entry hides a label that does not divide.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_LOOPS = "matching is not acyclic: gradient flow loops"


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

    A plain stack of cells, so long gradient flow chains never hit the
    recursion limit.  A matched target is visited twice: the first visit
    marks it ``_PENDING`` and pushes the unresolved other facets of its
    source, the second sums ``up * facet_sign * memo[facet]`` over them,
    with ``facet_sign`` as a sign alternating over the members ascending.
    The pending cells on the stack are exactly the ancestors of the cell
    being expanded, so a pending facet means the gradient flow loops.
    """
    got = memo.get(start)
    if got is _PENDING:
        raise ValueError(_LOOPS)
    if got is not None:
        return got
    stack = [start]
    while stack:
        tau = stack[-1]
        c = source_of.get(tau)
        if tau not in memo:
            if tau in source_cells:
                memo[tau] = {}
            elif c is None:
                memo[tau] = {tau: 1}
            else:
                memo[tau] = _PENDING
                for j in cell_members(tau):
                    part = memo.get(c ^ (1 << j))
                    if part is _PENDING:
                        raise ValueError(_LOOPS)
                    if part is None:
                        stack.append(c ^ (1 << j))
                if stack[-1] != tau:  # facets to resolve first
                    continue
        if memo[tau] is _PENDING:
            matched = c ^ tau
            sign = -facet_sign(c, matched.bit_length() - 1)  # the step up
            acc: dict[int, int] = {}
            rest = c
            while rest:  # members of c ascending; sign times facet_sign(c, j)
                low = rest & -rest
                rest ^= low
                if low != matched:
                    for crit, weight in memo[c ^ low].items():
                        acc[crit] = acc.get(crit, 0) + sign * weight
                sign = -sign
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
    raises ValueError naming both cells.  Quotients are taken on the packed
    labels of the module docstring, and every (quotient, weight) pair gets
    one immutable entry, shared by every complex of ``tc``.
    """
    report = validate_matching(tc, matching)
    if not report.all_ok:
        raise ValueError(f"matching fails validation: {report}")
    n = tc.n
    if family is None:
        pool = range(1 << n)
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
    context = tc.ideal.context
    fields, guards, code = tc.packed_labels()
    packed = {c: code[tc.cell_label[c]] for b in basis for c in b}
    entry_of = tc._entries  # (quotient, weight) -> entry, shared by every complex of tc
    memo: dict = {}
    differentials = []
    for i in range(1, n + 1):
        rows = tuple(basis[i - 1])
        cols = tuple(basis[i])
        row_index = {c: k for k, c in enumerate(rows)}
        entries: dict[tuple[int, int], DifferentialEntry] = {}
        for cidx, sigma in enumerate(cols):
            top = packed[sigma] | guards
            acc: dict[int, int] = {}
            sign = 1  # facet_sign(sigma, j) over the members j ascending
            rest = sigma
            while rest:
                low = rest & -rest
                rest ^= low
                tau = sigma ^ low
                if tau in source_of:
                    part = _resolve_transfer(source_of, source_cells, tau, memo)
                    for crit, weight in part.items():
                        acc[crit] = acc.get(crit, 0) + sign * weight
                elif tau not in source_cells:  # critical: it maps to itself
                    acc[tau] = acc.get(tau, 0) + sign
                sign = -sign
            for crit, weight in acc.items():
                if weight:
                    q = top - packed[crit]
                    entry = entry_of.get((q, weight))
                    if entry is None:
                        if q & guards != guards:  # a field borrowed its guard bit
                            raise ValueError(
                                f"lcm of cell {crit:#x} does not divide the lcm of cell {sigma:#x}"
                            )
                        factor = Monomial(context, tuple(q >> s & mask for s, mask in fields))
                        entry = entry_of[(q, weight)] = DifferentialEntry(weight, factor)
                    entries[(row_index[crit], cidx)] = entry
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
    differs from the ideal's variable count raises ValueError, and so does a
    row or column index outside its basis.
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
        num_rows, num_cols = len(matrix.rows), len(matrix.cols)
        by_col: dict[int, list] = {}
        high = []
        for (r, c), entry in matrix.entries.items():
            if not 0 <= r < num_rows:
                raise ValueError(f"row index {r} out of range for {num_rows} rows")
            if not 0 <= c < num_cols:
                raise ValueError(f"column index {c} out of range for {num_cols} columns")
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
