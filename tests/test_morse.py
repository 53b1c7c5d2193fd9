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
    enumerate_gradient_paths,
    homology_ranks,
    is_minimal,
    lyubeznik_matching,
    morse_differential,
    quotient,
    ranks,
    taylor_chain_complex,
    transfer,
    trimmed_matching,
    verify_complex,
)
from morseideals.morse import MorseComplex, _resolve_transfer
from morseideals.taylor import DifferentialEntry, DifferentialMatrix
from conftest import corpus_ideals


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


def test_morse_rejects_a_label_that_does_not_divide(run4):
    lcms = list(build_taylor(run4).lcms)
    lcms[0b0001] = run4.context.monomial("w^2")  # in place of y*z
    broken = TaylorComplex(run4, lcms)
    with pytest.raises(ValueError, match="lcm of cell 0x1 does not divide the lcm of cell 0x3"):
        morse_differential(broken, Matching.from_pairs(()))


def test_morse_family_closure_checked(run4):
    tc = build_taylor(run4)
    with pytest.raises(ValueError, match="closed"):
        morse_differential(tc, Matching.from_pairs(()), family=[0, 0b0011])


def _with_first_entry(mc, change):
    """``mc`` with the first entry of its degree-2 differential replaced by
    ``change(entry)``."""
    target = mc.differentials[1]
    (key, entry), *_ = sorted(target.entries.items())
    mutated_entries = dict(target.entries)
    mutated_entries[key] = change(entry)
    return MorseComplex(
        mc.ideal,
        mc.basis,
        (
            mc.differentials[0],
            DifferentialMatrix(target.rows, target.cols, mutated_entries),
            *mc.differentials[2:],
        ),
    )


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


def test_complex_json_encoding(run4):
    import json

    from morseideals import complex_to_json

    tc = build_taylor(run4)
    payload = complex_to_json(morse_differential(tc, bm_matching(tc)))
    assert json.loads(json.dumps(payload)) == payload
    assert payload["basis"][0] == [[]]
    assert payload["basis"][1] == [["y*z"], ["x*y"], ["w*x"], ["w*z"]]
    assert payload["basis"][3] == [["y*z", "w*x", "w*z"]]
    degree1 = payload["differentials"][0]
    assert [entry[3] for entry in degree1] == ["y*z", "x*y", "w*x", "w*z"]
    assert all(entry[2] == 1 for entry in degree1)


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
