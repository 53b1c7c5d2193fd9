"""Exact-arithmetic Betti numbers via the Taylor complex over the rationals.

This module is the independent oracle the matching constructions are checked
against: it never looks at matchings or generator orders, only at
lcm-preserving facet incidences of the Taylor complex.  The coefficient field
is fixed to characteristic zero.  Every rank, of the oracle's blocks and of
the differentials :func:`homology_ranks` checks, comes from one exact kernel
on sparse integer rows, :func:`_rank_rows`.

The oracle skips every lcm label ``m`` whose block is a cone, decided from
the exponents alone: some generator ``g`` dividing ``m`` has ``g_v < m_v``
for every variable ``v`` with ``m_v > 0``, that is ``m / rad(m)`` lies in
the ideal.  Every member of a cell of the class that attains some ``m_v``
is then not ``g``, so adding ``g`` to a cell of the class or removing it
keeps the lcm ``m``, and ``{g}`` itself is not in the class because
``lcm({g}) = g != m``.  The block is thus the mapping cone of the identity
on its cells without ``g`` (toggling ``g`` pairs them with the cells with
``g`` along facets of incidence ±1), which is acyclic, so every
``beta_{i,m}`` is 0.  This is the case of Miller-Sturmfels, Thm 1.34, where
the upper Koszul simplicial complex ``K^m`` is the full simplex on
``supp(m)``.  A squarefree label has ``m / rad(m) = 1``, which no generator
divides, so the test turns it down on its largest exponent alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import Monomial
from .morse import MorseComplex
from .taylor import TaylorComplex, facet_sign


def _rank_rows(rows) -> int:
    """Exact rank of the integer rows, each a sparse ``{col: value}`` dict.

    Each row is reduced against the pivot rows found so far, lowest column
    first, until it is zero or its lowest column has no pivot yet; then it
    becomes that column's pivot row, divided by the gcd of its entries.
    With ``p`` the pivot and ``f`` the row's entry in its column, the step
    against a pivot of ±1 is ``v -= f * p * pivot_row``; against any other
    pivot it is the fraction-free ``v = p * v - f * pivot_row``, with ``p``
    and ``f`` divided by their gcd first.  Every step is an exact rational
    row operation, so the rank is exact in plain integer arithmetic.  Each
    step must clear the pivot column; one that does not raises
    ``AssertionError`` instead of looping.
    """
    pivots: dict = {}
    for row in rows:
        v = {c: x for c, x in row.items() if x}
        while v:
            col = min(v)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*v.values())
                pivots[col] = {c: x // g for c, x in v.items()} if g != 1 else v
                break
            p = pivot[col]
            f = v[col]
            if p == 1 or p == -1:
                f *= p
            else:
                g = gcd(p, f)
                p //= g
                f //= g
                for c in v:
                    v[c] *= p
            for c, x in pivot.items():
                y = v.get(c, 0) - f * x
                if y:
                    v[c] = y
                else:
                    del v[c]
            if col in v:
                # a step that leaves the pivot column would loop forever
                raise AssertionError(f"rank step left column {col} in the row")
    return len(pivots)


@dataclass(frozen=True)
class BettiTable:
    """Total Betti numbers of R/I (degrees 0..n) plus the multigraded split."""

    totals: tuple[int, ...]
    multigraded: dict[Monomial, dict[int, int]]


def betti_numbers(tc: TaylorComplex) -> BettiTable:
    """Betti numbers from the Taylor complex tensored with the residue field.

    Tensoring keeps exactly the boundary entries between equal-lcm cells, so
    the complex splits into one block per multidegree and cardinality.  Each
    block is ranked as one sparse row per cell, ``{facet: incidence sign}``
    over its facets of the same lcm; the ranks give the multigraded Betti
    numbers, and the totals are their sums.  The blocks and facets come from
    the complex's cached lcm classes and bridge table, which depend on the
    lcm labels alone.

    A label ``m`` is skipped, unranked and without a ``multigraded`` entry,
    when its class is a cone: when a generator ``g`` of the class's divisor
    mask (its largest cell) has ``g_v < m_v`` wherever ``m_v > 0``.  Then
    for every cell ``sigma`` of the class, ``sigma | {g}`` and
    ``sigma - {g}`` lie in the class too, since each ``m_v`` is attained by a
    member other than ``g``, and ``sigma != {g}`` since ``lcm({g}) = g != m``.
    Toggling ``g`` pairs the cells of the block along facets of incidence
    ±1: the block is the mapping cone of the identity on its cells without
    ``g``, hence acyclic, and every ``beta_{i,m}`` is 0.  No squarefree label
    passes: its largest exponent, 1, rejects it before any generator is read.
    """
    n = tc.n
    bridge_table = tc.bridge_table()
    totals = [0] * (n + 1)
    multigraded: dict[Monomial, dict[int, int]] = {}
    exponents = [g.exponents for g in tc.ideal.generators]
    for label, cells in tc.classes().items():
        if _is_cone(label.exponents, cells[-1], exponents):
            continue
        by_card: dict[int, list[int]] = {}
        for c in cells:
            by_card.setdefault(c.bit_count(), []).append(c)
        block_rank: dict[int, int] = {}
        for i, group in by_card.items():
            block_rank[i] = _rank_rows(
                {sigma ^ (1 << b): facet_sign(sigma, b) for b in bridge_table[sigma]}
                for sigma in group
            )
        entry: dict[int, int] = {}
        for i, group in by_card.items():
            betti = len(group) - block_rank.get(i, 0) - block_rank.get(i + 1, 0)
            if betti:
                entry[i] = betti
        if entry:
            multigraded[label] = entry
            for i, b in entry.items():
                totals[i] += b
    return BettiTable(tuple(totals), multigraded)


def _is_cone(label: tuple[int, ...], mask: int, exponents) -> bool:
    """True iff a generator in ``mask`` has exponent below ``label``'s in
    every variable of ``label``'s support: it divides ``label / rad(label)``."""
    if max(label, default=0) <= 1:
        return False
    while mask:
        low = mask & -mask
        if all(g < m for g, m in zip(exponents[low.bit_length() - 1], label) if m):
            return True
        mask ^= low
    return False


def homology_ranks(mc: MorseComplex) -> list[int]:
    """Per-degree homology dimensions of the complex tensored with the field.

    For a complex that resolves R/I these equal the total Betti numbers, no
    matter which matching produced it.  Tensoring keeps the entries whose
    monomial factor is 1; they form one sparse ``{col: coefficient}`` row
    per row of each boundary matrix, ranked whole by :func:`_rank_rows`.
    The matrix is not split by the lcm labels of the cells: this is a check
    of the complex, so it must not trust the monomial factors it is
    checking.
    """
    dims = [len(b) for b in mc.basis]
    boundary_rank = [0] * (len(dims) + 1)
    for i, matrix in enumerate(mc.differentials, start=1):
        rows: dict = {}
        for (r, c), entry in matrix.entries.items():
            if entry.monomial_factor.is_one():
                rows.setdefault(r, {})[c] = entry.coefficient
        boundary_rank[i] = _rank_rows(rows.values())
    return [dims[i] - boundary_rank[i] - boundary_rank[i + 1] for i in range(len(dims))]
