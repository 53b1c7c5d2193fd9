import sys

import pytest

from morseideals import (
    Matching,
    Monomial,
    MonomialIdeal,
    TaylorComplex,
    VariableContext,
    bm_matching,
    build_taylor,
    critical_family,
    cycle_edge_ideal,
    homology_ranks,
    is_minimal,
    lyubeznik_matching,
    morse_differential,
    parse_ideal,
    ranks,
    trimmed_matching,
    verify_complex,
)
from morseideals.algebra import MAX_EXPONENT
from morseideals.morse import MorseComplex, _resolve_transfer
from morseideals.taylor import DifferentialEntry, DifferentialMatrix
from conftest import (
    CUBICS,
    POWER_IDEAL,
    corpus_ideals,
    enumerate_gradient_paths,
    load_fixture_ideal,
    naive_verify_complex,
    quotient,
    reference_morse_differential,
    taylor_chain_complex,
    transfer,
    unchecked_monomial,
)


def test_transfer_trivial_cases(run4):
    tc = build_taylor(run4)
    bm = bm_matching(tc)
    assert transfer(tc, bm, 0b1001) == {0b1001: 1}  # critical pair {yz, wz}
    assert transfer(tc, bm, 0b1111) == {}  # source of a matched edge


def test_transfer_matched_target(run4):
    tc = build_taylor(run4)
    bm = bm_matching(tc)
    # {yz, wx} bounces through {yz, xy, wx} to the critical pairs {yz, xy}, {xy, wx}
    assert transfer(tc, bm, 0b0101) == {0b0011: 1, 0b0110: 1}


def test_transfer_matches_path_enumeration(run4, tri):
    for ideal in (run4, tri, *corpus_ideals(10)):
        tc = build_taylor(ideal)
        for matching in (bm_matching(tc), lyubeznik_matching(tc)):
            for cell in range(1 << ideal.n):
                expected = {}
                for crit, weight in enumerate_gradient_paths(tc, matching, cell):
                    expected[crit] = expected.get(crit, 0) + weight
                expected = {k: v for k, v in expected.items() if v}
                assert transfer(tc, matching, cell) == expected


def test_transfer_cycle_guard():
    # doctored target-to-source map wiring two fake matched pairs into a loop
    source_of = {0b011: 0b111, 0b101: 0b111}
    with pytest.raises(ValueError, match="acyclic"):
        _resolve_transfer(source_of, frozenset(), 0b011, {})


def _doctored_chain(length):
    """Target ``1 << k`` matched up to ``(1 << k) | (1 << (k + 1))``: the
    flow from ``1`` runs through every link to the unmatched ``1 << length``."""
    return {1 << k: (1 << k) | (1 << (k + 1)) for k in range(length)}


def test_transfer_deeper_than_the_recursion_limit():
    length = 3000
    assert length > sys.getrecursionlimit()
    memo = {}
    assert _resolve_transfer(_doctored_chain(length), frozenset(), 1, memo) == {1 << length: 1}
    assert memo[1 << (length // 2)] == {1 << length: 1}


def test_transfer_loop_at_the_far_end_of_a_deep_chain():
    length = 3000
    source_of = _doctored_chain(length)
    source_of[1 << length] = (1 << length) | 1  # its other facet is the start
    with pytest.raises(ValueError, match="matching is not acyclic: gradient flow loops"):
        _resolve_transfer(source_of, frozenset(), 1, {})


def test_morse_complex_running_ideal(run4):
    tc = build_taylor(run4)
    mc = morse_differential(tc, bm_matching(tc))
    assert ranks(mc) == [1, 4, 4, 1, 0]
    assert verify_complex(mc)
    assert is_minimal(mc)

    lyu = morse_differential(tc, lyubeznik_matching(tc))
    assert ranks(lyu) == [1, 4, 5, 2, 0]
    assert verify_complex(lyu)
    assert not is_minimal(lyu)
    assert homology_ranks(lyu) == [1, 4, 4, 1, 0]


def test_morse_trimmed_family(run4):
    tc = build_taylor(run4)
    family = critical_family(tc, lyubeznik_matching(tc))
    mc = morse_differential(tc, trimmed_matching(tc, (0, 1, 2, 3)), family)
    assert ranks(mc) == [1, 4, 4, 1, 0]
    assert verify_complex(mc)
    assert is_minimal(mc)
    assert homology_ranks(mc) == [1, 4, 4, 1, 0]


def test_empty_matching_reproduces_taylor(run4):
    for ideal in (run4, *corpus_ideals(5)):
        tc = build_taylor(ideal)
        assert morse_differential(tc, Matching.from_pairs(())) == taylor_chain_complex(tc)


def test_taylor_of_triangle_not_minimal(tri):
    assert not is_minimal(taylor_chain_complex(build_taylor(tri)))


def test_morse_rejects_invalid_matching(run4):
    tc = build_taylor(run4)
    bad = Matching.from_pairs([(0b0011, 0b0001)])
    with pytest.raises(ValueError, match="validation"):
        morse_differential(tc, bad)


def test_morse_factors_are_the_label_quotients(run4, ex56):
    for ideal in (run4, ex56):
        tc = build_taylor(ideal)
        mc = morse_differential(tc, bm_matching(tc))
        for matrix in mc.differentials:
            for (r, c), entry in matrix.entries.items():
                factor = entry.monomial_factor
                assert factor == quotient(tc.lcm(matrix.cols[c]), tc.lcm(matrix.rows[r]))
                assert hash(factor) == hash(Monomial(factor.context, factor.exponents))


def _relabelled(tc, cell, label):
    """``tc`` with ``label`` appended to its labels and ``cell`` pointed at it."""
    cell_label = list(tc.cell_label)
    cell_label[cell] = len(tc.labels)
    return TaylorComplex(tc.ideal, (*tc.labels, tc.ideal.context.monomial(label)), cell_label)


def test_morse_rejects_a_label_that_does_not_divide(run4):
    broken = _relabelled(build_taylor(run4), 0b0001, "w^2")  # in place of y*z
    with pytest.raises(ValueError, match="lcm of cell 0x1 does not divide the lcm of cell 0x3"):
        morse_differential(broken, Matching.from_pairs(()))


@pytest.mark.parametrize(
    "cell, label, kind, pair",
    [
        # the label fails only in the first variable's field (w) ...
        (0b0001, "w^3*y*z", "empty", "0x1 does not divide the lcm of cell 0x3"),
        (0b1001, "w^5*x*y*z", "lyubeznik", "0x9 does not divide the lcm of cell 0xd"),
        # ... or only in the last one (z)
        (0b0001, "y*z^2", "empty", "0x1 does not divide the lcm of cell 0x3"),
        (0b1001, "w*y*z^3", "lyubeznik", "0x9 does not divide the lcm of cell 0xd"),
    ],
)
def test_morse_rejects_a_label_that_fails_in_one_field(run4, cell, label, kind, pair):
    tc = build_taylor(run4)
    matching = lyubeznik_matching(tc) if kind == "lyubeznik" else Matching.from_pairs(())
    with pytest.raises(ValueError, match=f"^lcm of cell {pair}$"):
        morse_differential(_relabelled(tc, cell, label), matching)


def test_a_warmed_entry_memo_still_rejects_a_label_that_does_not_divide(run4):
    # the cells without generator 0 (or 3) avoid the doctored label, so the
    # first complex succeeds and fills the memo that the second one reads
    cases = [(0b0001, "w^3*y*z", "empty", "0x1 does not divide the lcm of cell 0x3", 0)]
    cases += [(0b1001, "w^5*x*y*z", "lyubeznik", "0x9 does not divide the lcm of cell 0xd", 3)]
    for cell, label, kind, pair, avoided in cases:
        tc = build_taylor(run4)
        matching = lyubeznik_matching(tc) if kind == "lyubeznik" else Matching.from_pairs(())
        broken = _relabelled(tc, cell, label)
        family = [c for c in range(16) if not c >> avoided & 1]
        warm = morse_differential(broken, Matching.from_pairs(()), family)
        assert warm.differentials[0].entries and broken._entries
        with pytest.raises(ValueError, match=f"^lcm of cell {pair}$"):
            morse_differential(broken, matching)


def test_morse_family_closure_checked(run4):
    tc = build_taylor(run4)
    with pytest.raises(ValueError, match="closed"):
        morse_differential(tc, Matching.from_pairs(()), family=[0, 0b0011])


def _with_entry(mc, degree, key, change):
    """``mc`` with entry ``key`` of differential ``degree`` (1-based) replaced
    by ``change(entry)``."""
    target = mc.differentials[degree - 1]
    mutated_entries = dict(target.entries)
    mutated_entries[key] = change(target.entries[key])
    differentials = list(mc.differentials)
    differentials[degree - 1] = DifferentialMatrix(target.rows, target.cols, mutated_entries)
    return MorseComplex(mc.ideal, mc.basis, tuple(differentials))


def _with_first_entry(mc, change):
    """``mc`` with the first entry of its degree-2 differential replaced by
    ``change(entry)``."""
    return _with_entry(mc, 2, min(mc.differentials[1].entries), change)


def test_verify_complex_detects_flipped_sign(run4):
    mc = taylor_chain_complex(build_taylor(run4))
    assert verify_complex(mc)
    mutated = _with_first_entry(
        mc, lambda entry: DifferentialEntry(-entry.coefficient, entry.monomial_factor)
    )
    assert not verify_complex(mutated)


def test_verify_complex_detects_wrong_monomial_factor(run4):
    mc = taylor_chain_complex(build_taylor(run4))
    w = run4.context.monomial("w")
    mutated = _with_first_entry(
        mc, lambda entry: DifferentialEntry(entry.coefficient, entry.monomial_factor * w)
    )
    assert not verify_complex(mutated)


def test_zero_and_single_generator_complexes():
    zero = MonomialIdeal(VariableContext(("x",)), ())
    mc = morse_differential(build_taylor(zero), Matching.from_pairs(()))
    assert ranks(mc) == [1]
    assert is_minimal(mc)

    ctx = VariableContext(("x", "y"))
    single = MonomialIdeal(ctx, (ctx.monomial("x*y"),))
    mc = morse_differential(build_taylor(single), Matching.from_pairs(()))
    assert ranks(mc) == [1, 1]
    assert homology_ranks(mc) == [1, 1]


def _check_matchings(ideal):
    """The Taylor complex and the ``(matching, family)`` of every ``check``
    kind: bm, lyubeznik, trimmed, empty."""
    tc = build_taylor(ideal)
    lyu = lyubeznik_matching(tc)
    trimmed = trimmed_matching(tc, tuple(range(ideal.n)))
    empty = Matching.from_pairs(())
    family = critical_family(tc, lyu)
    return tc, [(bm_matching(tc), None), (lyu, None), (trimmed, family), (empty, None)]


def _check_complexes(ideal):
    """The complexes of every ``check`` kind: bm, lyubeznik, trimmed, empty."""
    tc, kinds = _check_matchings(ideal)
    for matching, family in kinds:
        yield morse_differential(tc, matching, family)


def _assert_equals_the_reference(ideal):
    """Every ``check`` kind's complex equals the entry-level reference, down
    to the insertion order of each entry dict."""
    tc, kinds = _check_matchings(ideal)
    complexes = []
    for matching, family in kinds:
        got = morse_differential(tc, matching, family)
        want = reference_morse_differential(tc, matching, family)
        assert got == want, ideal
        for mine, theirs in zip(got.differentials, want.differentials):
            assert list(mine.entries.items()) == list(theirs.entries.items()), ideal
        complexes.append(got)
    return complexes


def _named_ideal(name):
    if name in ("POWER_IDEAL", "CUBICS"):
        return parse_ideal({"POWER_IDEAL": POWER_IDEAL, "CUBICS": CUBICS}[name])
    if name.startswith("C"):
        return cycle_edge_ideal(int(name[1:]))
    return load_fixture_ideal(f"{name}.ideal")


@pytest.mark.parametrize(
    "name", [*(f"C{n}" for n in range(3, 9)), "run4", "ex56", "POWER_IDEAL", "CUBICS"]
)
def test_verify_complex_matches_naive_on_check_complexes(name):
    for mc in _check_complexes(_named_ideal(name)):
        assert verify_complex(mc) == naive_verify_complex(mc) is True


@pytest.mark.parametrize(
    "name", [*(f"C{n}" for n in range(3, 9)), "run4", "tri", "ex56", "POWER_IDEAL"]
)
def test_morse_differential_equals_the_entry_reference(name):
    _assert_equals_the_reference(_named_ideal(name))


def test_morse_differential_equals_the_entry_reference_on_the_corpus():
    for ideal in corpus_ideals(50):
        _assert_equals_the_reference(ideal)


def _assert_one_taylor_complex_equals_fresh_ones(ideal):
    """The ``check`` kinds built on one Taylor complex, in the ``check``
    order and in reverse, equal each kind built on a fresh one, down to the
    insertion order of each entry dict."""
    _, kinds = _check_matchings(ideal)
    fresh = [morse_differential(build_taylor(ideal), m, f) for m, f in kinds]
    for order in (kinds, kinds[::-1]):
        tc = build_taylor(ideal)
        shared = [morse_differential(tc, m, f) for m, f in order]
        if order is not kinds:
            shared.reverse()
        assert shared == fresh, ideal
        for mine, theirs in zip(shared, fresh):
            for a, b in zip(mine.differentials, theirs.differentials):
                assert list(a.entries.items()) == list(b.entries.items()), ideal


@pytest.mark.parametrize(
    "name", [*(f"C{n}" for n in range(3, 9)), "run4", "ex56", "POWER_IDEAL"]
)
def test_complexes_of_one_taylor_complex_equal_fresh_ones(name):
    _assert_one_taylor_complex_equals_fresh_ones(_named_ideal(name))


def test_complexes_of_one_taylor_complex_equal_fresh_ones_on_the_corpus(corpus):
    for ideal in corpus:
        _assert_one_taylor_complex_equals_fresh_ones(ideal)


def test_complexes_of_one_taylor_complex_share_their_entries():
    tc, kinds = _check_matchings(cycle_edge_ideal(6))
    seen = {}
    for matching, family in kinds:
        for matrix in morse_differential(tc, matching, family).differentials:
            for entry in matrix.entries.values():
                key = (entry.coefficient, entry.monomial_factor)
                assert seen.setdefault(key, entry) is entry
    # every entry of the memo is met, with factors of degree 0 and 1 and weights of both signs
    assert len(seen) == len(tc._entries)
    assert {(c > 0, f.degree()) for c, f in seen} >= {(True, 0), (False, 1)}


def test_morse_differential_at_the_exponent_bound():
    m = MAX_EXPONENT
    ideal = parse_ideal(f"vars: x y z\ngens: x^{m}*y x*z y*z^{m} x^5*y^3\n")
    factors = set()
    for mc in _assert_equals_the_reference(ideal):
        assert verify_complex(mc)
        for matrix in mc.differentials:
            factors |= {entry.monomial_factor.exponents for entry in matrix.entries.values()}
    assert (m, 0, 0) in factors


def test_verify_complex_matches_naive_on_the_corpus(corpus):
    for ideal in corpus:
        for mc in _check_complexes(ideal):
            assert verify_complex(mc) == naive_verify_complex(mc) is True, ideal


def _taylor_entry_mutations(ideal, change):
    mc = taylor_chain_complex(build_taylor(ideal))
    for degree, matrix in enumerate(mc.differentials, start=1):
        for key in matrix.entries:
            yield _with_entry(mc, degree, key, change)


def test_verify_complex_matches_naive_on_every_sign_flip(run4):
    flip = lambda entry: DifferentialEntry(-entry.coefficient, entry.monomial_factor)
    results = [
        (verify_complex(mc), naive_verify_complex(mc))
        for mc in _taylor_entry_mutations(run4, flip)
    ]
    assert len(results) == 32
    assert all(got == expected for got, expected in results)
    # every single flip breaks d^2 = 0
    assert not any(got for got, _ in results)


def test_verify_complex_matches_naive_on_every_factor_change(run4):
    count = 0
    for name in run4.context.names:
        variable = run4.context.monomial(name)
        times = lambda entry: DifferentialEntry(entry.coefficient, entry.monomial_factor * variable)
        for mc in _taylor_entry_mutations(run4, times):
            assert verify_complex(mc) == naive_verify_complex(mc) is False
            count += 1
    assert count == 4 * 32


XY = VariableContext(("x0", "x1"))


def _hand_complex(low, high):
    """Two differentials over ``x0, x1``, each given as
    ``{(row, col): (coefficient, exponents)}``.  Factors are built with
    ``unchecked_monomial``, so any exponents go through."""

    def matrix(entries, rows, cols):
        return DifferentialMatrix(
            rows,
            cols,
            {
                key: DifferentialEntry(coefficient, unchecked_monomial(XY, exponents))
                for key, (coefficient, exponents) in entries.items()
            },
        )

    sizes = (
        1 + max(r for r, _ in low),
        1 + max(max(c for _, c in low), max(r for r, _ in high)),
        1 + max(c for _, c in high),
    )
    cells = iter(range(sum(sizes)))
    basis = tuple(tuple(next(cells) for _ in range(size)) for size in sizes)
    return MorseComplex(
        MonomialIdeal(XY, ()),
        basis,
        (matrix(low, basis[0], basis[1]), matrix(high, basis[1], basis[2])),
    )


def _two_step_complex(low_factors, high_factors):
    """Basis sizes 1, 2, 1: ``d1 = [a0 a1]`` and ``d2 = [b0; b1]``."""
    return _hand_complex(
        {(0, k): factor for k, factor in enumerate(low_factors)},
        {(k, 0): factor for k, factor in enumerate(high_factors)},
    )


def test_verify_complex_keeps_a_doubled_exponent_in_its_field():
    # x0 * x0 - 1 * x1: a field one bit narrower would carry x0^2 into x1
    mc = _two_step_complex([(1, (1, 0)), (1, (0, 0))], [(1, (1, 0)), (-1, (0, 1))])
    assert verify_complex(mc) == naive_verify_complex(mc) is False
    mc = _two_step_complex([(1, (1, 0)), (1, (0, 0))], [(1, (1, 0)), (-1, (2, 0))])
    assert verify_complex(mc) == naive_verify_complex(mc) is True


def test_verify_complex_at_the_exponent_bound():
    top = MAX_EXPONENT
    cases = [
        # x0^top * x1^top - x1^top * x0^top
        ([(1, (top, 0)), (1, (0, top))], [(1, (0, top)), (-1, (top, 0))], True),
        # x0^(2 top) against x0^top * x1^top
        ([(1, (top, 0)), (1, (0, top))], [(1, (top, 0)), (-1, (top, 0))], False),
        # x0^(2 top) against x0^(2 top - 1) * x1
        ([(1, (top, 0)), (1, (top - 1, 1))], [(1, (top, 0)), (-1, (top, 0))], False),
        # equal products, reached through the top of both fields
        ([(1, (top, top)), (1, (top, top - 1))], [(1, (0, 0)), (-1, (0, 1))], True),
    ]
    for low, high, expected in cases:
        mc = _two_step_complex(low, high)
        assert verify_complex(mc) == naive_verify_complex(mc) is expected, (low, high)


def test_verify_complex_with_negative_exponents():
    cases = [
        # x0^-1 - 1 must not cancel
        ([(1, (-1, 0)), (1, (0, 0))], [(1, (0, 0)), (-1, (0, 0))], False),
        # x0^-1 * x0 - 1 * 1 cancels
        ([(1, (-1, 0)), (1, (0, 0))], [(1, (1, 0)), (-1, (0, 0))], True),
        # x0^-3 * x1 - x1^-2 * x0^-3 * x1^3
        ([(1, (-3, 0)), (1, (0, -2))], [(1, (0, 1)), (-1, (-3, 3))], True),
        # x0^-2 * x1^-1 against x0^-1 * x1^-2
        ([(1, (-1, -1)), (1, (0, -2))], [(1, (-1, 0)), (-1, (-1, 0))], False),
    ]
    for low, high, expected in cases:
        mc = _two_step_complex(low, high)
        assert verify_complex(mc) == naive_verify_complex(mc) is expected, (low, high)


def test_verify_complex_rejects_a_factor_of_the_wrong_length(run4):
    mc = taylor_chain_complex(build_taylor(run4))
    for exponents in ((1, 0, 0), (1, 0, 0, 0, 0)):
        short = unchecked_monomial(run4.context, exponents)
        mutated = _with_first_entry(mc, lambda entry: DifferentialEntry(entry.coefficient, short))
        with pytest.raises(ValueError, match=f"expected 4 exponents in a monomial factor, got {len(exponents)}"):
            verify_complex(mutated)


def test_verify_complex_keeps_rows_and_columns_apart():
    # each pair of products cancels only if the row or column index leaks
    # into the exponent fields, or the column index into the row index
    cases = [
        # rows 0 and 1 against x0 in the lowest field: x0 - 1
        ({(0, 0): (1, (1, 0)), (1, 0): (-1, (0, 0))}, {(0, 0): (1, (0, 0))}),
        # rows 0 and 1 against the top bit of the x0 field: x0^2 - 1
        (
            {(0, 0): (1, (1, 0)), (1, 1): (-1, (0, 0))},
            {(0, 0): (1, (1, 0)), (1, 0): (1, (0, 0))},
        ),
        # (row 1, column 0) against (row 0, column 1), every factor 1
        (
            {(1, 0): (1, (0, 0)), (0, 1): (-1, (0, 0))},
            {(0, 0): (1, (0, 0)), (1, 1): (1, (0, 0))},
        ),
        # columns 1 and 0 against x0 in the lowest field
        (
            {(0, 0): (1, (0, 0)), (0, 1): (-1, (1, 0))},
            {(0, 1): (1, (0, 0)), (1, 0): (1, (0, 0))},
        ),
        # columns 1 and 0 against the top bit of the x0 field
        (
            {(0, 0): (1, (0, 0)), (0, 1): (-1, (1, 0))},
            {(0, 1): (1, (0, 0)), (1, 0): (1, (1, 0))},
        ),
    ]
    for low, high in cases:
        mc = _hand_complex(low, high)
        assert verify_complex(mc) == naive_verify_complex(mc) is False, (low, high)


def test_verify_complex_rejects_a_column_index_out_of_range(run4):
    mc = morse_differential(build_taylor(run4), Matching.from_pairs(()))
    assert verify_complex(mc)
    low = mc.differentials[0]
    factor = run4.context.monomial("w")
    for column in (4, 99, -1):
        entries = {**low.entries, (0, column): DifferentialEntry(5, factor)}
        broken = MorseComplex(
            mc.ideal, mc.basis, (DifferentialMatrix(low.rows, low.cols, entries), *mc.differentials[1:])
        )
        with pytest.raises(ValueError, match=f"^column index {column} out of range for 4 columns$"):
            verify_complex(broken)


def test_verify_complex_rejects_a_row_index_out_of_range():
    # a negative row index would borrow from the column above it
    mc = _two_step_complex([(1, (0, 0)), (1, (0, 0))], [(1, (0, 0)), (-1, (0, 0))])
    low, high = mc.differentials
    moved = {(-1 if key == (0, 1) else 0, key[1]): entry for key, entry in low.entries.items()}
    broken = MorseComplex(mc.ideal, mc.basis, (DifferentialMatrix(low.rows, low.cols, moved), high))
    with pytest.raises(ValueError, match="row index -1 out of range for 1 rows"):
        verify_complex(broken)
