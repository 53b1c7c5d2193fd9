import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from morseideals import (
    Matching,
    Monomial,
    MonomialIdeal,
    PossibleEdge,
    VariableContext,
    cell_members,
    critical_cells,
    critical_family,
    divides,
    lyubeznik_matching,
    parse_ideal,
    random_squarefree_ideal,
)
from morseideals.algebra import _require_same_context
from morseideals.families import SplitMix64
from morseideals.homology import _rank_rows
from morseideals.morse import MorseComplex, _resolve_transfer
from morseideals.taylor import DifferentialEntry, DifferentialMatrix, facet_sign

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_ideal(name):
    return parse_ideal((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def run4():
    return load_fixture_ideal("run4.ideal")


@pytest.fixture(scope="session")
def tri():
    return load_fixture_ideal("tri.ideal")


@pytest.fixture(scope="session")
def ex56():
    return load_fixture_ideal("ex56.ideal")


# every degree-3 monomial in 3 variables: 10 generators, not squarefree
CUBICS = "vars: x y z\ngens: x^3 x^2*y x^2*z x*y^2 x*y*z x*z^2 y^3 y^2*z y*z^2 z^3\n"

# every degree-4 monomial in 3 variables but x2*x3^3 and x3^4
POWER_IDEAL = (FIXTURES / "power.ideal").read_text()


def corpus_ideals(count=100):
    """Seeded random squarefree corpus: up to 6 variables, up to 6 generators."""
    out = []
    for seed in range(count):
        num_vars = 3 + seed % 4
        num_gens = 2 + seed % 5
        out.append(random_squarefree_ideal(seed, num_vars, num_gens))
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_ideals()


def cell_of(indices):
    """The cell mask with the given generator indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def incidence_sign(source, target):
    """Sign of the facet ``target`` inside ``source``: ``(-1)**j`` where ``j``
    is the 0-based rank of the removed member among the source members in
    ascending order.  Checked reference for ``taylor.facet_sign``."""
    removed = source ^ target
    if target & ~source or removed.bit_count() != 1:
        raise ValueError(f"cells {source:#x} -> {target:#x} are not a facet pair")
    return (-1) ** cell_members(source).index(removed.bit_length() - 1)


def unchecked_monomial(context, exponents):
    """A Monomial that skips ``__post_init__``, so exponents of any sign or
    length go through; for tests that feed malformed factors."""
    mono = object.__new__(Monomial)
    mono.__dict__.update(context=context, exponents=tuple(exponents))
    return mono


def transfer(tc, matching, cell, memo=None):
    """Integer combination of same-cardinality critical cells reached by the
    gradient flow starting at ``cell``, from the kernel of
    ``morse_differential``.  The matching must be homogeneous and acyclic; a
    non-acyclic matching trips the cycle guard."""
    if memo is None:
        memo = {}
    return dict(_resolve_transfer(matching.source_by_target, matching.source_cells, cell, memo))


def exact_rank(matrix):
    """Rank over the rationals of a dense integer matrix (a list of rows),
    from the sparse kernel ``homology._rank_rows``."""
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return _rank_rows({j: x for j, x in enumerate(r) if x} for r in rows)


def naive_rank(matrix):
    """Plain Gaussian elimination over Fraction; oracle for exact_rank."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_homology_ranks(mc):
    """Homology ranks of a Morse complex from dense ``naive_rank`` boundaries."""
    dims = [len(b) for b in mc.basis]
    boundary_rank = [0] * (len(dims) + 1)
    for i, matrix in enumerate(mc.differentials, start=1):
        dense = [[0] * len(matrix.cols) for _ in matrix.rows]
        for (r, c), entry in matrix.entries.items():
            if entry.monomial_factor.is_one():
                dense[r][c] = entry.coefficient
        boundary_rank[i] = naive_rank(dense)
    return [dims[i] - boundary_rank[i] - boundary_rank[i + 1] for i in range(len(dims))]


def naive_betti_numbers(tc):
    """``(totals, multigraded)`` of the Taylor complex, ranked block by dense block.

    Cells are grouped by the value of their lcm, and each block is the dense
    matrix of incidence signs over every facet pair of the group, ranked with
    ``naive_rank``; no bridge table or sparse kernel is used.
    """
    groups = {}
    for cell in range(1 << tc.n):
        by_card = groups.setdefault(tc.lcm(cell), {})
        by_card.setdefault(cell.bit_count(), []).append(cell)
    totals = [0] * (tc.n + 1)
    multigraded = {}
    for label, by_card in groups.items():
        block_rank = {}
        for i, cols in by_card.items():
            rows = by_card.get(i - 1, [])
            block_rank[i] = naive_rank(
                [
                    [
                        incidence_sign(sigma, tau) if tau & ~sigma == 0 else 0
                        for sigma in cols
                    ]
                    for tau in rows
                ]
            )
        entry = {}
        for i, cells in by_card.items():
            betti = len(cells) - block_rank[i] - block_rank.get(i + 1, 0)
            if betti:
                entry[i] = betti
                totals[i] += betti
        if entry:
            multigraded[label] = entry
    return tuple(totals), multigraded


def reference_betti_numbers(tc):
    """``(totals, multigraded)`` with every lcm block ranked by the sparse
    kernel: ``betti_numbers`` without its cone skip.  Reference on ideals
    too large for the dense ``naive_betti_numbers``."""
    bridge_table = tc.bridge_table()
    totals = [0] * (tc.n + 1)
    multigraded = {}
    for label, cells in tc.classes().items():
        by_card = {}
        for c in cells:
            by_card.setdefault(c.bit_count(), []).append(c)
        block_rank = {
            i: _rank_rows(
                {sigma ^ (1 << b): facet_sign(sigma, b) for b in bridge_table[sigma]}
                for sigma in group
            )
            for i, group in by_card.items()
        }
        entry = {}
        for i, group in by_card.items():
            betti = len(group) - block_rank[i] - block_rank.get(i + 1, 0)
            if betti:
                entry[i] = betti
                totals[i] += betti
        if entry:
            multigraded[label] = entry
    return tuple(totals), multigraded


def naive_minimize(monomials):
    """The minimal generators of ``monomials`` by their definition: ``m``
    survives unless an earlier copy equals it or another listed monomial
    with different exponents divides it; survivors keep input order."""
    gens = list(monomials)
    kept = [
        m
        for i, m in enumerate(gens)
        if m not in gens[:i]
        and not any(
            d != m and all(x <= y for x, y in zip(d.exponents, m.exponents)) for d in gens
        )
    ]
    return tuple(kept), len(kept) != len(gens)


def reference_random_squarefree_ideal(seed, num_vars, num_gens):
    """``random_squarefree_ideal`` by re-minimizing: append each draw, then
    minimize the whole pool again with ``naive_minimize``."""
    context = VariableContext(tuple(f"x{i}" for i in range(1, num_vars + 1)))
    rng = SplitMix64(seed)
    pool = []
    for _ in range(200):
        support_size = 2 + rng.below(num_vars - 1)
        indices = list(range(num_vars))
        for j in range(support_size):
            k = j + rng.below(num_vars - j)
            indices[j], indices[k] = indices[k], indices[j]
        exps = [0] * num_vars
        for i in indices[:support_size]:
            exps[i] = 1
        pool.append(Monomial(context, tuple(exps)))
        pool = list(naive_minimize(pool)[0])
        if len(pool) == num_gens:
            break
    return MonomialIdeal(context, tuple(pool))


def quotient(a, b):
    """Exact quotient a / b; raises unless b divides a."""
    if not divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return Monomial(a.context, tuple(x - y for x, y in zip(a.exponents, b.exponents)))


def enumerate_orders(n):
    """All permutations of 0..n-1 in lexicographic order."""
    return itertools.permutations(range(n))


def _cell_lcm_exponents(ideal, cell):
    """Exponents of the lcm of a cell's generators, from the generators alone."""
    exponents = (0,) * ideal.context.size
    for i, generator in enumerate(ideal.generators):
        if cell >> i & 1:
            exponents = tuple(map(max, exponents, generator.exponents))
    return exponents


def naive_classes(tc):
    """``{lcm exponents: ascending cells}`` recomputed from the generators;
    reference for ``TaylorComplex.classes``."""
    groups = {}
    for cell in range(1 << tc.n):
        groups.setdefault(_cell_lcm_exponents(tc.ideal, cell), []).append(cell)
    return {label: tuple(cells) for label, cells in groups.items()}


def naive_bridge_table(tc):
    """Bridges of every cell recomputed from the generators: the members
    whose removal keeps the lcm; reference for ``TaylorComplex.bridge_table``."""
    ideal = tc.ideal
    return tuple(
        tuple(
            i
            for i in range(tc.n)
            if cell >> i & 1
            and _cell_lcm_exponents(ideal, cell ^ (1 << i)) == _cell_lcm_exponents(ideal, cell)
        )
        for cell in range(1 << tc.n)
    )


def edge_set(matching):
    """The edges of ``matching`` as a set."""
    return frozenset(matching.edges)


def naive_is_acyclic(tc, matching):
    """DFS over the whole modified Hasse diagram, lcms from the generators.

    Every cell is a node.  Its lcm-preserving facet steps that are not
    matched edges go down, and every homogeneous matched edge goes up,
    reversed.  True iff no directed cycle exists; reference for the
    acyclicity verdict of ``validate_matching`` on a matching.
    """
    lcm = [_cell_lcm_exponents(tc.ideal, cell) for cell in range(1 << tc.n)]
    matched = edge_set(matching)
    steps = []
    for cell in range(1 << tc.n):
        facets = (cell ^ (1 << i) for i in cell_members(cell))
        steps.append([f for f in facets if lcm[f] == lcm[cell] and (cell, f) not in matched])
    for s, t in matching:
        if lcm[s] == lcm[t]:
            steps[t].append(s)
    state = [0] * len(steps)  # 0 unseen, 1 on the DFS path, 2 finished
    for root in range(len(steps)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(steps[root]))]
        while stack:
            cell, successors = stack[-1]
            nxt = next(successors, -1)
            if nxt < 0:
                state[cell] = 2
                stack.pop()
            elif state[nxt] == 1:
                return False
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(steps[nxt])))
    return True


def naive_divisor_masks(tc):
    """For every cell, the mask of the generators dividing its lcm,
    recomputed from the exponents; reference for ``TaylorComplex.divisor_masks``."""
    gens = [g.exponents for g in tc.ideal.generators]
    table = []
    for cell in range(1 << tc.n):
        label = _cell_lcm_exponents(tc.ideal, cell)
        table.append(sum(1 << j for j, g in enumerate(gens) if all(map(int.__le__, g, label))))
    return tuple(table)


def lyu_scan(tc, cell):
    """(value, prefix mask) of the deepest divisible prefix, or None.

    The cell is listed in descending order; the value is the largest k such
    that some generator strictly below the k-th listed member divides the lcm
    of the first k members.  Reference for ``lyubeznik_matching``, built on
    the validating ``divides`` rather than the divisor masks.
    """
    if cell == 0:
        raise ValueError("the empty cell has no Lyubeznik value")
    desc = sorted(cell_members(cell), reverse=True)
    gens = tc.ideal.generators
    mask = 0
    prefixes = []
    for i in desc:
        mask |= 1 << i
        prefixes.append((i, mask))
    for k in range(len(desc), 0, -1):
        i, mask = prefixes[k - 1]
        label = tc.lcm(mask)
        if any(divides(gens[j], label) for j in range(i)):
            return k, mask
    return None


def lyu_value(tc, cell):
    """Depth of the deepest prefix whose lcm a strictly smaller generator
    divides; None plays the role of minus infinity."""
    scan = lyu_scan(tc, cell)
    return scan[0] if scan else None


def lyu_min(tc, cell):
    """Index of the smallest generator dividing the lcm of that prefix."""
    scan = lyu_scan(tc, cell)
    if scan is None:
        raise ValueError("cell has no Lyubeznik value (it is minus infinity)")
    label = tc.lcm(scan[1])
    return next(j for j, g in enumerate(tc.ideal.generators) if divides(g, label))


def reference_lyubeznik_matching(tc):
    """The Lyubeznik matching built cell by cell from ``lyu_scan``: each cell
    with a value pairs with itself plus or minus its ``lyu_min``."""
    pairs = set()
    for cell in range(1, 1 << tc.n):
        if lyu_scan(tc, cell) is not None:
            bit = 1 << lyu_min(tc, cell)
            pairs.add((cell | bit, cell & ~bit))
    return Matching.from_pairs(pairs)


def enumerate_gradient_paths(tc, matching, cell):
    """Yield ``(critical_cell, weight)`` once per gradient path from ``cell``.

    Exponential path expansion; reference for the memoized ``transfer`` on
    small ideals.
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


def naive_verify_complex(mc):
    """d² = 0 with every product bucketed by ``(row, col, multidegree)``.

    The multidegree is the exponent tuple of the product, summed entry by
    entry and kept as a tuple; no packing.  ``Monomial.__mul__`` is not used
    because it rejects the negative and oversized exponents that the packing
    tests feed in.  Reference for ``verify_complex``.
    """
    size = mc.ideal.context.size
    for low, high in zip(mc.differentials, mc.differentials[1:]):
        assert low.cols == high.rows
        high_by_mid = {}
        for (mid, c), entry in high.entries.items():
            high_by_mid.setdefault(mid, []).append((c, entry))
        buckets = {}
        for (r, mid), low_entry in low.entries.items():
            for c, high_entry in high_by_mid.get(mid, ()):
                a = low_entry.monomial_factor.exponents
                b = high_entry.monomial_factor.exponents
                assert len(a) == len(b) == size
                key = (r, c, tuple(x + y for x, y in zip(a, b)))
                buckets[key] = buckets.get(key, 0) + low_entry.coefficient * high_entry.coefficient
        if any(buckets.values()):
            return False
    return True


def monomial_lcm(a, b):
    """Componentwise maximum of the exponent vectors."""
    _require_same_context(a, b)
    return Monomial(a.context, tuple(map(max, a.exponents, b.exponents)))


def smallest_bridge(tc, cell):
    """The bridge of minimal position, or None if the cell has none."""
    found = tc.bridge_table()[cell]
    return found[0] if found else None


def cells_of_cardinality(tc, k):
    """Cells with k members, in ascending bitmask order."""
    return [c for c in range(1 << tc.n) if c.bit_count() == k]


def taylor_differential(tc, i):
    """Degree-``i`` boundary map of the Taylor complex.

    Rows are the cardinality ``i - 1`` cells, columns the cardinality ``i``
    cells; the entry at a facet pair is the incidence sign together with the
    quotient of the two lcm labels.
    """
    n = tc.n
    if not 0 < i <= n:
        raise ValueError(f"differential degree {i} out of range 1..{n}")
    rows = tuple(cells_of_cardinality(tc, i - 1))
    cols = tuple(cells_of_cardinality(tc, i))
    row_index = {c: k for k, c in enumerate(rows)}
    entries = {}
    for cidx, sigma in enumerate(cols):
        label = tc.lcm(sigma)
        for j in cell_members(sigma):
            tau = sigma ^ (1 << j)
            entries[(row_index[tau], cidx)] = DifferentialEntry(
                incidence_sign(sigma, tau), quotient(label, tc.lcm(tau))
            )
    return DifferentialMatrix(rows, cols, entries)


def taylor_chain_complex(tc):
    """The full Taylor complex packaged with its boundary matrices."""
    n = tc.n
    basis = tuple(tuple(cells_of_cardinality(tc, i)) for i in range(n + 1))
    return MorseComplex(tc.ideal, basis, tuple(taylor_differential(tc, i) for i in range(1, n + 1)))


def reference_morse_differential(tc, matching, family=None):
    """The Morse complex entry by entry: each column sums ``facet_sign``
    times ``transfer`` over the facets of its cell, in ascending member
    order, and each factor is the ``quotient`` of the two lcm labels.  The
    basis is the empty cell and the groups of ``critical_cells``."""
    n = tc.n
    groups = critical_cells(tc, matching, family)
    basis = ((0,), *(tuple(groups[n - k]) for k in range(1, n + 1)))
    memo = {}
    differentials = []
    for i in range(1, n + 1):
        rows, cols = basis[i - 1], basis[i]
        row_index = {c: k for k, c in enumerate(rows)}
        entries = {}
        for cidx, sigma in enumerate(cols):
            acc = {}
            for j in cell_members(sigma):
                for crit, weight in transfer(tc, matching, sigma ^ (1 << j), memo).items():
                    acc[crit] = acc.get(crit, 0) + facet_sign(sigma, j) * weight
            for crit, weight in acc.items():
                if weight:
                    factor = quotient(tc.lcm(sigma), tc.lcm(crit))
                    entries[(row_index[crit], cidx)] = DifferentialEntry(weight, factor)
        differentials.append(DifferentialMatrix(rows, cols, entries))
    return MorseComplex(tc.ideal, basis, tuple(differentials))


def sweep_cells(tc, ordered_cells, family_set=None, positions=None):
    """Run steps (1)-(2) of the bridge pairing cell by cell over ``ordered_cells``.

    ``ordered_cells`` must come in descending cardinality; the order within a
    cardinality level never changes the outcome because a pick only removes a
    cell of strictly smaller cardinality.  When ``positions`` is given the
    smallest bridge is taken with respect to those positions instead of the
    generator indices.  Reference for the bitset kernel ``matching._sweep``:
    it reads ``tc.bridge_table()`` cell by cell and keeps no bitsets.
    """
    removed = set()
    out = []
    ideal_gens = tc.ideal.generators
    table = tc.bridge_table()
    for sigma in ordered_cells:
        if sigma in removed:
            continue
        found = table[sigma]
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


def stream_sweep(perm, work, friendly_only=False, record=None):
    """The bitset sweep of one whole order, level after level, as
    ``matching._sweep`` returns it; reference for ``_sweep``, which folds
    the prefix step ``matching._step`` over the order, and for the searches,
    which share each prefix's state among its extensions."""
    n, rows, levels, counts, target = work
    ranks = list(counts)
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
                if friendly_only and found & hit:
                    return None
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
    return ranks


def resolve_duplicate_targets(edges):
    """Step (3): among edges sharing a target, keep the smallest bridge."""
    best = {}
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


def _sweep_order(cells):
    # descending cardinality, ascending mask within each cardinality
    return sorted((c for c in cells if c.bit_count() >= 3), key=lambda c: (-c.bit_count(), c))


def reference_possible_edges(tc):
    """Every possible edge of the ideal's own order, cell by cell."""
    return sweep_cells(tc, _sweep_order(range(1 << tc.n)))


def reference_bm_matching(tc):
    return resolve_duplicate_targets(reference_possible_edges(tc))


def reference_is_bridge_friendly(tc):
    possible = reference_possible_edges(tc)
    kept = resolve_duplicate_targets(possible)
    return {(pe.source, pe.target) for pe in possible} == edge_set(kept)


def reference_trimmed_matching(tc, order2):
    """The cell-by-cell sweep over the Lyubeznik-critical family under ``order2``."""
    positions = [0] * tc.n
    for p, i in enumerate(order2):
        positions[i] = p
    family = critical_family(tc, lyubeznik_matching(tc))
    edges = sweep_cells(tc, _sweep_order(family), set(family), positions)
    return resolve_duplicate_targets(edges)
