"""Cells of the Taylor complex and its least-common-multiple table.

A cell is a plain ``int`` bitmask over generator indices: bit ``i`` set means
generator ``i`` belongs to the cell.  The empty cell is ``0`` and the full
cell is ``(1 << n) - 1``.  Since the generator sequence is ordered smallest
first, a generator's index is also its position in the total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

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


def _outside_error(what: str, values: Iterable[int], size: int, kind: str = "cells") -> ValueError:
    """The error naming the first of ``values`` outside ``0 .. size - 1``."""
    outside = next(v for v in values if not 0 <= v < size)
    return ValueError(f"{what} {outside} is outside the {kind} 0..{size - 1} of the complex")


class TaylorComplex:
    """All ``2**n`` cells of an ideal with their lcm labels.

    ``labels`` holds each distinct lcm once, and ``cell_label[cell]`` is the
    index in ``labels`` of the lcm of the cell's member generators, so two
    cells have equal lcms exactly when their indices are equal.
    :func:`build_taylor` lists the labels in the order of their smallest
    cell.  The constructor rejects two equal labels, a ``cell_label`` of
    other than ``2**n`` entries and an index outside ``labels``, and
    :meth:`lcm` a cell outside the complex.  Immutable after construction;
    the tables derived from the indices are built on first use and then
    shared, read-only, by every caller.

    :meth:`bridge_table` and :meth:`divisor_masks` rely on the labels being
    the lcms of the cells, as :func:`build_taylor` makes them: the bridges
    are read off the generators that attain each label's exponents.  A
    complex built by hand with other labels serves only to exercise the
    divisibility guard of the Morse layer.  The Morse complexes of one
    Taylor complex share its private memo ``_entries`` of differential
    entries, keyed by (packed quotient, weight), and its validations share
    the private memo ``_reports``, which maps the edge tuple validated last
    to its report (see :func:`~morseideals.matching.validate_matching`).
    """

    __slots__ = ("ideal", "n", "labels", "cell_label", "_class_cache", "_bridge_cache",
                 "_divisor_cache", "_label_cache", "_entries", "_reports")

    def __init__(self, ideal: MonomialIdeal, labels: Iterable[Monomial], cell_label: Iterable[int]):
        self.ideal = ideal
        self.n = ideal.n
        self.labels = labels = tuple(labels)
        self.cell_label = cell_label = tuple(cell_label)
        if len(cell_label) != 1 << self.n:
            raise ValueError(f"cell_label has {len(cell_label)} entries, not {1 << self.n}, one per cell")
        if not 0 <= min(cell_label) <= max(cell_label) < len(labels):
            raise _outside_error("label index", cell_label, len(labels), "labels")
        first: dict[tuple[int, ...], int] = {}
        for k, m in enumerate(labels):
            if first.setdefault(m.exponents, k) != k:
                raise ValueError(f"labels {first[m.exponents]} and {k} are equal ({m})")
        self._class_cache = None
        self._bridge_cache = None
        self._divisor_cache = None
        self._label_cache = None
        self._entries = {}
        self._reports = {}

    @property
    def lcms(self) -> list[Monomial]:
        """A fresh list of every cell's label, indexed by cell mask."""
        labels = self.labels
        return [labels[k] for k in self.cell_label]

    def lcm(self, cell: int) -> Monomial:
        if not 0 <= cell < len(self.cell_label):
            raise _outside_error("cell", (cell,), len(self.cell_label))
        return self.labels[self.cell_label[cell]]

    def classes(self) -> Mapping[Monomial, tuple[int, ...]]:
        """Cells grouped by lcm label, each group ascending (cached, read-only).

        Labels come in the order of ``labels``, without those that no cell
        has; one counting pass over ``cell_label`` groups the cells.
        """
        if self._class_cache is None:
            groups: list[list[int]] = [[] for _ in self.labels]
            for cell, k in enumerate(self.cell_label):
                groups[k].append(cell)
            self._class_cache = MappingProxyType({m: tuple(g) for m, g in zip(self.labels, groups) if g})
        return self._class_cache

    def bridge_table(self) -> tuple[tuple[int, ...], ...]:
        """Bridges of every cell, indexed by cell mask (cached): the members
        whose removal keeps the lcm, ascending.  Only cells sharing their
        label have any, and no entry depends on the order, so order searches
        share one table.

        Per class of label ``m``: for each variable ``v`` of its support,
        ``A_v`` masks the generators of the largest cell whose exponent in
        ``v`` is ``m_v``.  A member of a cell ``c`` is no bridge exactly when
        it is the only member of ``c`` in some ``A_v``.  A one-generator
        ``A_v`` lies in every cell of the class, so those are folded into one
        fixed mask, and a cell costs one AND per remaining ``A_v``.  Equal
        bridge tuples are shared.
        """
        if self._bridge_cache is None:
            # level[v][e]: the generators whose exponent in v is e
            level: list[dict[int, int]] = [{} for _ in range(self.ideal.context.size)]
            for j, generator in enumerate(self.ideal.generators):
                for at, e in zip(level, generator.exponents):
                    at[e] = at.get(e, 0) | 1 << j
            table: list[tuple[int, ...]] = [()] * len(self.cell_label)
            memo: dict[int, tuple[int, ...]] = {}
            for label, cells in self.classes().items():
                if len(cells) == 1:
                    continue
                largest = cells[-1]
                fixed = 0
                shared = []
                for mask in {largest & at[m] for at, m in zip(level, label.exponents) if m}:
                    if mask & (mask - 1):
                        shared.append(mask)
                    else:
                        fixed |= mask
                for c in cells:
                    kept = fixed
                    for mask in shared:
                        hit = c & mask
                        if not hit & (hit - 1):
                            kept |= hit
                    bridges = c & ~kept
                    found = memo.get(bridges)
                    if found is None:
                        found = memo[bridges] = cell_members(bridges)
                    table[c] = found
            self._bridge_cache = tuple(table)
        return self._bridge_cache

    def divisor_masks(self) -> tuple[int, ...]:
        """For every cell, the bitmask of the generators dividing its lcm,
        indexed by cell mask (cached).

        Adding a generator that divides a label to a cell keeps the label,
        so the largest cell with a label holds exactly those generators.
        """
        if self._divisor_cache is None:
            largest = [0] * len(self.labels)
            for cell, k in enumerate(self.cell_label):
                largest[k] = cell
            self._divisor_cache = tuple(map(largest.__getitem__, self.cell_label))
        return self._divisor_cache

    def packed_labels(self) -> tuple[tuple[tuple[int, int], ...], int, tuple[int, ...]]:
        """``(fields, guards, code)``, read off ``labels`` (cached): variable
        ``v`` gets the bit field ``fields[v] = (shift, mask)``, as wide as
        its largest exponent, with one guard bit on top; ``guards`` masks the
        guard bits, and ``code[k]`` packs ``labels[k]`` into one int."""
        if self._label_cache is None:
            fields, shift, guards = [], 0, 0
            for column in zip(*(m.exponents for m in self.labels)):
                width = max(column).bit_length()
                fields.append((shift, (1 << width) - 1))
                guards |= 1 << (shift + width)
                shift += width + 1
            code = tuple(sum(e << s for e, (s, _) in zip(m.exponents, fields)) for m in self.labels)
            self._label_cache = (tuple(fields), guards, code)
        return self._label_cache


def build_taylor(ideal: MonomialIdeal, max_generators: int = DEFAULT_MAX_GENERATORS) -> TaylorComplex:
    """Materialize the full lcm table of the Taylor complex of ``ideal``.

    Each distinct lcm gets a label index.  The cells whose top generator is
    ``g`` are the cells below ``1 << g`` with ``g`` added, so a cell's label
    index is the join of its rest's label index with ``g``.  One dict per
    generator memoizes those joins; the exponent vector is computed only on
    a miss, that is once per distinct (label, generator) pair, not once per
    cell, and a new exponent vector becomes the next label.
    """
    n = ideal.n
    if n > max_generators:
        raise ValueError(
            f"ideal has {n} generators, above the Taylor cap of {max_generators}; "
            f"pass a larger max_generators to build_taylor (the CLI has no override)"
        )
    context = ideal.context
    one = context.one()
    labels = [one]
    index_of: dict[tuple[int, ...], int] = {one.exponents: 0}
    cell_label = [0]  # label index of every cell built so far
    for top, generator in enumerate(ideal.generators):
        joins: dict[int, int] = {}
        gen = generator.exponents
        for rest in cell_label[: 1 << top]:
            joined = joins.get(rest)
            if joined is None:
                exps = tuple(map(max, labels[rest].exponents, gen))
                joined = index_of.get(exps)
                if joined is None:
                    joined = index_of[exps] = len(labels)
                    labels.append(Monomial(context, exps))
                joins[rest] = joined
            cell_label.append(joined)
    return TaylorComplex(ideal, labels, cell_label)


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
