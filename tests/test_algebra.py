import pytest

from morseideals import (
    Monomial,
    MonomialIdeal,
    VariableContext,
    divides,
    format_ideal,
    minimize_generators,
    parse_ideal,
    parse_monomial,
)
from morseideals.algebra import MAX_EXPONENT
from morseideals.families import SplitMix64
from conftest import monomial_lcm, naive_minimize, quotient


@pytest.fixture
def ctx8():
    return VariableContext(tuple(f"x{i}" for i in range(1, 9)))


def test_lcm_idempotent_and_identity(ctx8):
    m = ctx8.monomial("x1*x2^3")
    assert monomial_lcm(m, m) == m
    assert monomial_lcm(ctx8.one(), m) == m
    assert monomial_lcm(m, ctx8.one()) == m


def test_lcm_squarefree_union(ctx8):
    m1 = ctx8.monomial("x1*x2*x3*x4")
    m4 = ctx8.monomial("x1*x2*x7")
    assert str(monomial_lcm(m1, m4)) == "x1*x2*x3*x4*x7"


def test_divides_examples(ctx8):
    m6 = ctx8.monomial("x7*x8")
    big = ctx8.monomial("x1*x2*x3*x4*x7*x8")
    assert divides(m6, big)
    assert divides(m6, m6)
    m5 = ctx8.monomial("x2*x3*x8")
    assert not divides(m5, ctx8.monomial("x1*x2*x3*x4*x7"))


def test_divides_general_exponents():
    ctx = VariableContext(("x", "y"))
    assert divides(ctx.monomial("x*y"), ctx.monomial("x^2*y"))
    assert not divides(ctx.monomial("x^3"), ctx.monomial("x^2*y^5"))


def test_context_mismatch_rejected():
    a = VariableContext(("x", "y")).monomial("x")
    b = VariableContext(("x", "z")).monomial("x")
    with pytest.raises(ValueError):
        monomial_lcm(a, b)
    with pytest.raises(ValueError):
        divides(a, b)


def test_quotient_exact():
    ctx = VariableContext(("x", "y"))
    q = quotient(ctx.monomial("x^2*y"), ctx.monomial("x*y"))
    assert str(q) == "x"
    with pytest.raises(ValueError):
        quotient(ctx.monomial("x"), ctx.monomial("y"))


def test_minimize_divisible_and_duplicates():
    ctx = VariableContext(("x", "y"))
    xy = ctx.monomial("x*y")
    xy2 = ctx.monomial("x*y^2")
    kept, changed = minimize_generators([xy, xy2])
    assert kept == (xy,) and changed

    kept, changed = minimize_generators([xy, xy])
    assert kept == (xy,) and changed

    ctx4 = VariableContext(("w", "x", "y", "z"))
    gens = tuple(ctx4.monomial(s) for s in ("y*z", "x*y", "w*x", "w*z"))
    kept, changed = minimize_generators(list(gens))
    assert kept == gens and not changed


def test_minimize_rejects_unit():
    ctx = VariableContext(("x",))
    with pytest.raises(ValueError):
        minimize_generators([ctx.one()])


def test_minimize_matches_the_definition_on_lists_with_duplicates():
    rng = SplitMix64(22)
    ctx = VariableContext(("a", "b", "c"))
    changed_seen = set()
    for _ in range(2000):
        pool = []
        for _ in range(rng.below(11)):
            if pool and rng.below(3) == 0:
                pool.append(pool[rng.below(len(pool))])
                continue
            exps = tuple(rng.below(4) for _ in range(3))
            if any(exps):
                pool.append(Monomial(ctx, exps))
        expected = naive_minimize(pool)
        assert minimize_generators(pool) == expected
        changed_seen.add(expected[1])
    assert changed_seen == {False, True}


def test_minimize_error_order_and_iterator_input():
    xy = VariableContext(("x", "y"))
    uv = VariableContext(("u", "v"))
    # the unit monomial is rejected even when a context mismatch comes first
    with pytest.raises(ValueError, match="unit ideal"):
        minimize_generators([xy.monomial("x"), uv.monomial("u"), xy.one()])
    with pytest.raises(ValueError, match="variable context mismatch"):
        minimize_generators([xy.monomial("x*y"), xy.monomial("y"), uv.monomial("u")])
    gens = (xy.monomial("x*y^2"), xy.monomial("x^2"), xy.monomial("x*y"))
    assert minimize_generators(iter(gens)) == ((xy.monomial("x^2"), xy.monomial("x*y")), True)


def test_ideal_rejects_a_generator_of_another_context():
    xy = VariableContext(("x", "y"))
    with pytest.raises(ValueError, match=r"variable context mismatch: \('x', 'y'\) vs \('u', 'v'\)"):
        MonomialIdeal(xy, (VariableContext(("u", "v")).monomial("u"),))


def test_parse_ideal_running_example():
    ideal = parse_ideal("vars: w x y z\ngens: y*z x*y w*x w*z")
    assert ideal.generator_strings == ("y*z", "x*y", "w*x", "w*z")
    assert ideal.context.names == ("w", "x", "y", "z")


def test_parse_zero_ideal():
    ideal = parse_ideal("vars: x\ngens:")
    assert ideal.n == 0


def test_parse_incomparable_powers_no_minimization():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ideal = parse_ideal("vars: x y\ngens: x^2*y x*y^2")
    assert ideal.n == 2


def test_parse_warns_on_minimization():
    with pytest.warns(UserWarning, match="not minimal"):
        ideal = parse_ideal("vars: x y\ngens: x*y x*y^2")
    assert ideal.generator_strings == ("x*y",)


def test_parse_continuation_lines_and_comments():
    text = "# comment\nvars: x y z\ngens:\nx*y\n\ny*z\n"
    ideal = parse_ideal(text)
    assert ideal.generator_strings == ("x*y", "y*z")


def test_parse_errors():
    with pytest.raises(ValueError, match="unknown variable"):
        parse_ideal("vars: x y\ngens: x*q")
    with pytest.raises(ValueError, match="power"):
        parse_ideal("vars: x y\ngens: x^0")
    with pytest.raises(ValueError, match="vars"):
        parse_ideal("gens: x")
    with pytest.raises(ValueError, match="gens"):
        parse_ideal("vars: x y")


def test_parse_format_round_trip(run4, tri, ex56):
    for ideal in (run4, tri, ex56, parse_ideal("vars: x\ngens:")):
        text = format_ideal(ideal)
        again = parse_ideal(text)
        assert again == ideal
        assert format_ideal(again) == text


def test_canonical_printing():
    ctx = VariableContext(("a", "b", "c"))
    assert str(ctx.one()) == "1"
    assert str(ctx.monomial("b^2*a")) == "a*b^2"
    assert str(parse_monomial("c*a^3", ctx)) == "a^3*c"


def test_exponent_bound_rejected():
    ctx = VariableContext(("x",))
    with pytest.raises(ValueError, match="bound"):
        Monomial(ctx, (MAX_EXPONENT + 1,))
    assert Monomial(ctx, (MAX_EXPONENT,)).exponents == (MAX_EXPONENT,)


def test_ideal_invariants_enforced():
    ctx = VariableContext(("x", "y"))
    with pytest.raises(ValueError, match="minimal"):
        MonomialIdeal(ctx, (ctx.monomial("x"), ctx.monomial("x*y")))
    with pytest.raises(ValueError, match="minimal"):
        MonomialIdeal(ctx, (ctx.monomial("x"), ctx.monomial("x")))
    with pytest.raises(ValueError):
        MonomialIdeal(ctx, (ctx.one(),))


def test_reordered_permutation_checked(run4):
    swapped = run4.reordered((3, 2, 1, 0))
    assert swapped.generator_strings == ("w*z", "w*x", "x*y", "y*z")
    with pytest.raises(ValueError):
        run4.reordered((0, 0, 1, 2))


def test_lcm_divides_properties_random():
    rng = SplitMix64(13)
    ctx = VariableContext(("a", "b", "c", "d"))

    def draw():
        return Monomial(ctx, tuple(rng.below(4) for _ in range(4)))

    for _ in range(200):
        a, b, c = draw(), draw(), draw()
        assert monomial_lcm(a, b) == monomial_lcm(b, a)
        assert monomial_lcm(a, monomial_lcm(b, c)) == monomial_lcm(monomial_lcm(a, b), c)
        assert monomial_lcm(a, a) == a
        assert divides(a, monomial_lcm(a, b))


def test_minimized_lists_are_pairwise_incomparable():
    rng = SplitMix64(29)
    ctx = VariableContext(("a", "b", "c"))
    for _ in range(50):
        pool = [
            Monomial(ctx, tuple(rng.below(3) for _ in range(3)))
            for _ in range(6)
        ]
        pool = [m for m in pool if not m.is_one()]
        if not pool:
            continue
        kept, _ = minimize_generators(pool)
        for i, a in enumerate(kept):
            for j, b in enumerate(kept):
                assert i == j or not divides(a, b)
