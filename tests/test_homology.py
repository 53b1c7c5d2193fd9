import pytest

from morseideals import (
    Matching,
    Monomial,
    MonomialIdeal,
    VariableContext,
    betti_numbers,
    bm_matching,
    build_taylor,
    critical_family,
    cycle_edge_ideal,
    divides,
    format_ideal,
    homology_ranks,
    is_minimal,
    lyubeznik_matching,
    minimize_generators,
    morse_differential,
    parse_ideal,
    ranks,
    trimmed_matching,
)
from morseideals import homology
from morseideals.families import SplitMix64
from morseideals.homology import _rank_rows
from morseideals.morse import MorseComplex
from morseideals.taylor import DifferentialEntry, DifferentialMatrix
from conftest import (
    CUBICS,
    POWER_IDEAL,
    corpus_ideals,
    exact_rank,
    naive_betti_numbers,
    naive_homology_ranks,
    naive_rank,
    reference_betti_numbers,
    taylor_chain_complex,
)


def test_exact_rank_basics():
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 1], [1, 1]]) == 1
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert exact_rank([[0, 3, 0], [0, 0, 0], [0, 6, 1]]) == 2
    with pytest.raises(ValueError, match="ragged"):
        exact_rank([[], [1]])
    with pytest.raises(ValueError, match="ragged"):
        exact_rank([[1, 2], [1]])


def test_exact_rank_against_rational_oracle():
    rng = SplitMix64(2024)
    for _ in range(200):
        nrows = 1 + rng.below(12)
        ncols = 1 + rng.below(12)
        matrix = [
            [rng.below(11) - 5 for _ in range(ncols)] for _ in range(nrows)
        ]
        assert exact_rank(matrix) == naive_rank(matrix)


def _column_sums(table):
    """The multigraded counts summed per degree, to compare with the totals."""
    sums = [0] * len(table.totals)
    for entry in table.multigraded.values():
        for degree, count in entry.items():
            sums[degree] += count
    return tuple(sums)


def test_betti_running_ideal(run4):
    table = betti_numbers(build_taylor(run4))
    assert table.totals == (1, 4, 4, 1, 0)
    assert _column_sums(table) == table.totals


def test_betti_triangle_and_single(tri):
    assert betti_numbers(build_taylor(tri)).totals == (1, 3, 2, 0)
    ctx = VariableContext(("x", "y"))
    single = MonomialIdeal(ctx, (ctx.monomial("x*y"),))
    assert betti_numbers(build_taylor(single)).totals == (1, 1)
    zero = MonomialIdeal(VariableContext(("x",)), ())
    assert betti_numbers(build_taylor(zero)).totals == (1,)


def test_betti_five_cycle():
    tc = build_taylor(cycle_edge_ideal(5))
    assert betti_numbers(tc).totals == tuple(homology_ranks(taylor_chain_complex(tc)))


def test_homology_ranks_running_ideal(run4):
    tc = build_taylor(run4)
    bm = morse_differential(tc, bm_matching(tc))
    assert homology_ranks(bm) == [1, 4, 4, 1, 0]
    lyu = morse_differential(tc, lyubeznik_matching(tc))
    assert homology_ranks(lyu) == [1, 4, 4, 1, 0]
    assert homology_ranks(taylor_chain_complex(tc)) == [1, 4, 4, 1, 0]


def test_non_squarefree_ideal_end_to_end():
    # lcm-class computation by hand: only x^2*y^3 is shared (by {x^2, y^3}
    # and the full cell), killing one rank at degrees 2 and 3
    ideal = parse_ideal("vars: x y\ngens: x^2 x*y y^3")
    tc = build_taylor(ideal)
    assert betti_numbers(tc).totals == (1, 3, 2, 0)

    bm = morse_differential(tc, bm_matching(tc))
    assert ranks(bm) == [1, 3, 2, 0] and is_minimal(bm)
    lyu = lyubeznik_matching(tc)
    assert len(lyu) == 0  # no prefix lcm is divisible by a smaller generator
    trimmed = morse_differential(tc, trimmed_matching(tc, (0, 1, 2)))
    assert ranks(trimmed) == [1, 3, 2, 0] and is_minimal(trimmed)
    assert homology_ranks(trimmed) == [1, 3, 2, 0]


def test_taylor_homology_equals_betti_on_corpus():
    for ideal in corpus_ideals(25):
        tc = build_taylor(ideal)
        assert homology_ranks(taylor_chain_complex(tc)) == list(betti_numbers(tc).totals)


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_rank_rows_scattered_blocks():
    rng = SplitMix64(7)
    for _ in range(40):
        blocks = []
        for _ in range(1 + rng.below(5)):
            nrows = 1 + rng.below(5)
            ncols = 1 + rng.below(5)
            blocks.append([[rng.below(5) - 2 for _ in range(ncols)] for _ in range(nrows)])
        nrows = sum(len(b) for b in blocks)
        ncols = sum(len(b[0]) for b in blocks)
        # block k sits on the next free rows and columns, then both are permuted
        row_of = _shuffled(rng, range(nrows))
        col_of = _shuffled(rng, range(ncols))
        rows = {}
        r0 = c0 = 0
        for block in blocks:
            for i, row in enumerate(block):
                for j, value in enumerate(row):
                    rows.setdefault(row_of[r0 + i], {})[col_of[c0 + j]] = value
            r0 += len(block)
            c0 += len(block[0])
        dense = [[0] * ncols for _ in range(nrows)]
        for r, row in rows.items():
            for c, value in row.items():
                dense[r][c] = value
        assert _rank_rows(rows.values()) == naive_rank(dense)
        assert _rank_rows(rows.values()) == sum(naive_rank(b) for b in blocks)


def test_homology_ranks_follow_components_not_labels():
    # columns 0, 1 carry one label and columns 2, 3 another; row 2 links the
    # two groups, so ranking per label (2 + 2) would overcount the true rank
    dense = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 1, 1, 0],
    ]
    by_label = naive_rank([row[:2] for row in dense]) + naive_rank([row[2:] for row in dense])
    assert by_label == 4
    assert naive_rank(dense) == 3
    # the matrix as the one differential of a complex with bases of 3 and 4 cells
    context = VariableContext(("x",))
    one = Monomial(context, (0,))
    entries = {
        (r, c): DifferentialEntry(v, one)
        for r, row in enumerate(dense)
        for c, v in enumerate(row)
        if v
    }
    basis = ((0, 1, 2), (3, 4, 5, 6))
    mc = MorseComplex(MonomialIdeal(context, ()), basis, (DifferentialMatrix(*basis, entries),))
    assert homology_ranks(mc) == [3 - 3, 4 - 3]


def test_rank_rows_empty_and_zero_entries():
    assert _rank_rows([]) == 0
    assert _rank_rows([{0: 0}, {5: 0}]) == 0
    # an explicit zero must not tie two blocks together or count as a pivot
    assert _rank_rows([{0: 2, 1: 0}, {1: 0, 2: -1}]) == 2


def _check_complexes(tc):
    """The complexes of the four ``check`` kinds, built as the CLI builds them."""
    yield morse_differential(tc, bm_matching(tc))
    yield morse_differential(tc, lyubeznik_matching(tc))
    family = critical_family(tc, lyubeznik_matching(tc))
    yield morse_differential(tc, trimmed_matching(tc, tuple(range(tc.n))), family)
    yield morse_differential(tc, Matching.from_pairs(()))


def test_homology_ranks_match_dense_ranks(run4, ex56):
    ideals = [cycle_edge_ideal(n) for n in range(3, 9)] + [run4, ex56]
    for ideal in ideals:
        tc = build_taylor(ideal)
        totals = list(betti_numbers(tc).totals)
        for mc in _check_complexes(tc):
            assert homology_ranks(mc) == naive_homology_ranks(mc) == totals


def test_rank_rows_non_unit_pivots():
    # pivots other than ±1 take the fraction-free step
    assert _rank_rows([{0: 2, 1: 1}, {0: 1, 1: 2}]) == 2
    assert _rank_rows([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert _rank_rows([{0: 4, 1: 6}, {0: 6, 1: 9}, {0: 10, 1: 15}]) == 1
    assert _rank_rows([{0: 3, 2: 5}, {0: 5, 1: 7}, {1: 21, 2: -25}]) == 2
    big = 10**40
    assert _rank_rows([{0: big, 1: 1}, {0: 1, 1: 0}, {0: big + 1, 1: 1}]) == 2
    assert _rank_rows([{0: big, 1: big + 1}, {0: big - 1, 1: big}]) == 2
    assert _rank_rows([]) == 0
    assert _rank_rows([{}, {5: 0}]) == 0


def test_rank_rows_against_rational_oracle():
    rng = SplitMix64(4242)
    for _ in range(300):
        nrows = rng.below(10)
        ncols = rng.below(10)
        density = 1 + rng.below(4)  # about one entry in `density` is nonzero
        spread = (1, 4, 30)[rng.below(3)]  # ±1 only, small, or wide entries
        dense = [
            [
                (rng.below(2 * spread + 1) - spread) if rng.below(density) == 0 else 0
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        # columns get scattered keys, some zeros stay explicit, rows come shuffled
        keys = _shuffled(rng, range(3 * ncols + 1))[:ncols]
        rows = [
            {keys[j]: x for j, x in enumerate(row) if x or rng.below(3) == 0}
            for row in dense
        ]
        expected = naive_rank(dense) if ncols else 0
        assert _rank_rows(_shuffled(rng, rows)) == expected, dense


def test_betti_numbers_match_dense_blocks(run4, ex56):
    ideals = [cycle_edge_ideal(n) for n in range(3, 9)] + [run4, ex56, parse_ideal(CUBICS)]
    ideals += corpus_ideals(100)
    for ideal in ideals:
        tc = build_taylor(ideal)
        table = betti_numbers(tc)
        assert (table.totals, table.multigraded) == naive_betti_numbers(tc), format_ideal(ideal)


def test_betti_power_ideal_row():
    table = betti_numbers(build_taylor(parse_ideal(POWER_IDEAL)))
    assert table.totals == (1, 13, 20, 8) + (0,) * 10
    assert _column_sums(table) == table.totals


def _random_non_squarefree_ideals(count):
    """Seeded ideals in 2-4 variables with exponents 0-4 and up to 8
    generators, minimized; each has a generator that is not squarefree."""
    rng = SplitMix64(9)
    out = []
    while len(out) < count:
        context = VariableContext(("x", "y", "z", "w")[: 2 + rng.below(3)])
        monomials = []
        for _ in range(1 + rng.below(8)):
            exponents = tuple(rng.below(5) for _ in context.names)
            if any(exponents):
                monomials.append(Monomial(context, exponents))
        if not monomials:
            continue
        generators, _ = minimize_generators(monomials)
        if not all(g.is_squarefree for g in generators):
            out.append(MonomialIdeal(context, generators))
    return out


def _cone_labels(tc):
    """Labels m that ``m / rad(m)`` lies in the ideal of, found by ``divides``
    over every generator rather than by the divisor masks."""
    out = set()
    for label in tc.classes():
        exponents = tuple(max(e - 1, 0) for e in label.exponents)
        reduced = Monomial(label.context, exponents)
        if any(divides(g, reduced) for g in tc.ideal.generators):
            out.add(label)
    return out


def test_betti_numbers_skip_cones_on_random_non_squarefree_ideals():
    cones = 0
    for ideal in _random_non_squarefree_ideals(200):
        tc = build_taylor(ideal)
        table = betti_numbers(tc)
        assert (table.totals, table.multigraded) == naive_betti_numbers(tc), format_ideal(ideal)
        cone_labels = _cone_labels(tc)
        assert not cone_labels & table.multigraded.keys()
        cones += len(cone_labels)
    assert cones > 0  # the skip is exercised


@pytest.mark.parametrize("text", [POWER_IDEAL, CUBICS], ids=["POWER_IDEAL", "CUBICS"])
def test_betti_numbers_equal_every_block_ranked(text):
    tc = build_taylor(parse_ideal(text))
    table = betti_numbers(tc)
    assert (table.totals, table.multigraded) == reference_betti_numbers(tc)


def _ranked_blocks(monkeypatch, tc):
    """``_rank_rows`` calls made by ``betti_numbers(tc)``: one per ranked block."""
    calls = []

    def counting(rows):
        calls.append(None)
        return _rank_rows(rows)

    monkeypatch.setattr(homology, "_rank_rows", counting)
    betti_numbers(tc)
    monkeypatch.undo()
    return len(calls)


def _blocks(tc, labels):
    """Blocks of the given labels: one per cardinality present in a class."""
    classes = tc.classes()
    return sum(len({c.bit_count() for c in classes[label]}) for label in labels)


def test_cone_skip_fires_only_on_cones(monkeypatch, run4, ex56):
    tc = build_taylor(parse_ideal(POWER_IDEAL))
    cone_labels = _cone_labels(tc)
    assert len(tc.classes()) == 77 and len(cone_labels) == 39
    ranked = set(tc.classes()) - cone_labels
    assert _ranked_blocks(monkeypatch, tc) == _blocks(tc, ranked)
    # squarefree ideals: every label is ranked
    ideals = [cycle_edge_ideal(n) for n in range(3, 9)] + [run4, ex56] + corpus_ideals(100)
    for ideal in ideals:
        tc = build_taylor(ideal)
        assert _ranked_blocks(monkeypatch, tc) == _blocks(tc, tc.classes()), format_ideal(ideal)
