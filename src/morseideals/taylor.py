"""Cells of the Taylor complex and its least-common-multiple table.

A cell is a plain ``int`` bitmask over generator indices: bit ``i`` set means
generator ``i`` belongs to the cell.  The empty cell is ``0`` and the full
cell is ``(1 << n) - 1``.  Since the generator sequence is ordered smallest
first, a generator's index is also its position in the total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .algebra import Monomial, MonomialIdeal

DEFAULT_MAX_GENERATORS = 24


def cell_members(cell: int) -> tuple[int, ...]:
    """Generator indices of a cell, ascending."""
    out = []
    while cell:
        low = cell & -cell
        out.append(low.bit_length() - 1)
        cell ^= low
    return tuple(out)


class TaylorComplex:
    """All ``2**n`` cells of an ideal with their lcm labels precomputed.

    ``lcms[cell]`` holds the lcm of the member generators; distinct exponent
    vectors are interned to a single Monomial instance, so two cells have
    equal lcms exactly when their table entries are the same object.
    Immutable after construction; the tables derived from ``lcms`` are
    built on first use and then shared by every caller.
    """

    __slots__ = ("ideal", "n", "lcms", "_class_cache", "_bridge_cache", "_divisor_cache")

    def __init__(self, ideal: MonomialIdeal, lcms: list[Monomial]):
        self.ideal = ideal
        self.n = ideal.n
        self.lcms = lcms
        self._class_cache = None
        self._bridge_cache = None
        self._divisor_cache = None

    def lcm(self, cell: int) -> Monomial:
        return self.lcms[cell]

    def bridges(self, cell: int) -> list[int]:
        """Members whose removal keeps the lcm, ascending.

        Lcm entries are interned, so identity comparison is exact.
        """
        lcms = self.lcms
        label = lcms[cell]
        return [i for i in cell_members(cell) if lcms[cell ^ (1 << i)] is label]

    def classes(self) -> Mapping[Monomial, tuple[int, ...]]:
        """Cells grouped by lcm label, each group ascending (cached, read-only).

        Labels come in the order of their smallest cell.
        """
        if self._class_cache is None:
            groups: dict[Monomial, list[int]] = {}
            for cell, label in enumerate(self.lcms):
                groups.setdefault(label, []).append(cell)
            self._class_cache = MappingProxyType({k: tuple(v) for k, v in groups.items()})
        return self._class_cache

    def bridge_table(self) -> tuple[tuple[int, ...], ...]:
        """Bridges of every cell, indexed by cell mask (cached).

        A bridge keeps the lcm, so only cells that share their label with
        another cell have any.  Bridges do not depend on the generator order,
        so order searches can reuse this table across permutations.
        """
        if self._bridge_cache is None:
            table: list[tuple[int, ...]] = [()] * len(self.lcms)
            for cells in self.classes().values():
                if len(cells) > 1:
                    for c in cells:
                        table[c] = tuple(self.bridges(c))
            self._bridge_cache = tuple(table)
        return self._bridge_cache

    def divisor_masks(self) -> tuple[int, ...]:
        """For every cell, the bitmask of the generators dividing its lcm,
        indexed by cell mask (cached).

        Adding a generator that divides a label to a cell keeps the label,
        so the largest cell of a label's class holds exactly those generators.
        """
        if self._divisor_cache is None:
            table = [0] * len(self.lcms)
            for cells in self.classes().values():
                for c in cells:
                    table[c] = cells[-1]
            self._divisor_cache = tuple(table)
        return self._divisor_cache


def build_taylor(ideal: MonomialIdeal, max_generators: int = DEFAULT_MAX_GENERATORS) -> TaylorComplex:
    """Materialize the full lcm table of the Taylor complex of ``ideal``."""
    n = ideal.n
    if n > max_generators:
        raise ValueError(
            f"ideal has {n} generators, above the cap of {max_generators}; "
            f"pass a larger max_generators to override"
        )
    context = ideal.context
    one = context.one()
    interned: dict[tuple[int, ...], Monomial] = {one.exponents: one}
    lcms = [one] * (1 << n)
    gens = ideal.generators
    for cell in range(1, 1 << n):
        top = cell.bit_length() - 1
        rest = cell ^ (1 << top)
        exps = tuple(map(max, lcms[rest].exponents, gens[top].exponents))
        mono = interned.get(exps)
        if mono is None:
            mono = Monomial(context, exps)
            interned[exps] = mono
        lcms[cell] = mono
    return TaylorComplex(ideal, lcms)


def facet_sign(cell: int, member: int) -> int:
    """Incidence sign of the facet ``cell`` minus its member ``member``.

    Convention: ``(-1)**j`` where ``j`` is the 0-based rank of ``member``
    among the members of ``cell`` in ascending order.  Any consistent
    simplicial convention works; this one is validated globally by the
    boundary-squares-to-zero checks.  Unchecked: ``member`` must belong to
    ``cell``.
    """
    return -1 if (cell & ((1 << member) - 1)).bit_count() & 1 else 1


class DifferentialEntry(NamedTuple):
    coefficient: int
    monomial_factor: Monomial


@dataclass(frozen=True)
class DifferentialMatrix:
    """Sparse matrix of integer-times-monomial entries between cell bases.

    ``rows`` and ``cols`` list basis cells in ascending bitmask order;
    ``entries`` is keyed by ``(row_index, col_index)``.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: dict[tuple[int, int], DifferentialEntry]
