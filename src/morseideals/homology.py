"""Exact-arithmetic Betti numbers via the Taylor complex over the rationals.

This module is the independent oracle the matching constructions are checked
against: it never looks at bridges or matchings, only at lcm-preserving facet
incidences of the Taylor complex.  The coefficient field is fixed to
characteristic zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Monomial
from .morse import MorseComplex
from .taylor import TaylorComplex, incidence_sign


def exact_rank(matrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Intermediate entries are minors of the input, so every division below is
    exact in integer arithmetic; Python integers keep them exact at any size.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    if not ncols:
        return 0
    nrows = len(rows)
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, nrows):
            factor = rows[i][col]
            row_i = rows[i]
            row_r = rows[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (p * row_i[j] - factor * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


@dataclass(frozen=True)
class BettiTable:
    """Total Betti numbers of R/I (degrees 0..n) plus the multigraded split."""

    totals: tuple[int, ...]
    multigraded: dict[Monomial, dict[int, int]]


def betti_numbers(tc: TaylorComplex) -> BettiTable:
    """Betti numbers from the Taylor complex tensored with the residue field.

    Tensoring keeps exactly the boundary entries between equal-lcm cells, so
    the complex splits into one block per multidegree; each block is a small
    sign matrix whose exact ranks give the multigraded Betti numbers, and the
    totals are their sums.
    """
    n = tc.n
    classes: dict[Monomial, list[int]] = {}
    for c in range(1 << n):
        classes.setdefault(tc.lcm(c), []).append(c)
    totals = [0] * (n + 1)
    multigraded: dict[Monomial, dict[int, int]] = {}
    for label, cells in classes.items():
        by_card: dict[int, list[int]] = {}
        for c in cells:
            by_card.setdefault(c.bit_count(), []).append(c)
        block_rank: dict[int, int] = {}
        for i, cols in by_card.items():
            rows = by_card.get(i - 1)
            if not rows:
                continue
            row_index = {c: k for k, c in enumerate(rows)}
            block = [[0] * len(cols) for _ in rows]
            for cidx, sigma in enumerate(cols):
                for b in tc.bridges(sigma):
                    tau = sigma ^ (1 << b)
                    block[row_index[tau]][cidx] = incidence_sign(sigma, tau)
            block_rank[i] = exact_rank(block)
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


def sparse_rank(entries) -> int:
    """Exact rank of a sparse integer matrix given as ``{(row, col): value}``.

    Rows and columns are the two sides of a bipartite graph whose edges are
    the nonzero entries.  Permuting rows and columns by connected component
    makes the matrix block diagonal, and the rank of a block-diagonal matrix
    is the sum of its block ranks, so each component is ranked on its own
    small dense block.
    """
    parent: list[int] = []
    row_node: dict = {}
    col_node: dict = {}

    def node(index: dict, key) -> int:
        got = index.get(key)
        if got is None:
            got = index[key] = len(parent)
            parent.append(got)
        return got

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    nonzero = []
    for (r, c), value in entries.items():
        if value:
            a = find(node(row_node, r))
            b = find(node(col_node, c))
            if a != b:
                parent[b] = a
            nonzero.append((r, c, value))
    blocks: dict[int, list] = {}
    for r, c, value in nonzero:
        blocks.setdefault(find(row_node[r]), []).append((r, c, value))
    rank = 0
    for block in blocks.values():
        rows: dict = {}
        cols: dict = {}
        for r, c, _ in block:
            rows.setdefault(r, len(rows))
            cols.setdefault(c, len(cols))
        dense = [[0] * len(cols) for _ in rows]
        for r, c, value in block:
            dense[rows[r]][cols[c]] = value
        rank += exact_rank(dense)
    return rank


def homology_ranks(mc: MorseComplex) -> list[int]:
    """Per-degree homology dimensions of the complex tensored with the field.

    For a complex that resolves R/I these equal the total Betti numbers, no
    matter which matching produced it.  Tensoring keeps the entries whose
    monomial factor is 1; each boundary matrix is then ranked block by block
    through :func:`sparse_rank`.  The blocks are the connected components of
    the nonzero entries, not the lcm labels of the cells: this is a check of
    the complex, so it must not trust the monomial factors it is checking.
    """
    dims = [len(b) for b in mc.basis]
    boundary_rank = [0] * (len(dims) + 1)
    for i, matrix in enumerate(mc.differentials, start=1):
        boundary_rank[i] = sparse_rank(
            {
                key: entry.coefficient
                for key, entry in matrix.entries.items()
                if entry.monomial_factor.is_one()
            }
        )
    return [dims[i] - boundary_rank[i] - boundary_rank[i + 1] for i in range(len(dims))]
