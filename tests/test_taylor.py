import pytest

from morseideals import (
    Monomial,
    MonomialIdeal,
    TaylorComplex,
    VariableContext,
    build_taylor,
    cell_members,
    cycle_edge_ideal,
    parse_ideal,
    verify_complex,
)
from morseideals.taylor import facet_sign
from conftest import (
    CUBICS,
    POWER_IDEAL,
    cell_of,
    corpus_ideals,
    incidence_sign,
    naive_bridge_table,
    naive_classes,
    naive_divisor_masks,
    quotient,
    smallest_bridge,
    taylor_chain_complex,
    taylor_differential,
)


def test_cell_helpers():
    assert cell_members(0b1011) == (0, 1, 3)
    assert cell_of((0, 1, 3)) == 0b1011
    assert cell_members(0) == ()


def test_build_running_ideal(run4):
    tc = build_taylor(run4)
    assert len(tc.lcms) == 16
    assert str(tc.lcm(0)) == "1"
    assert str(tc.lcm(0b1111)) == "w*x*y*z"
    assert tc.lcm(0b0001) == run4.generators[0]


def test_build_zero_and_single():
    zero = MonomialIdeal(VariableContext(("x",)), ())
    tc = build_taylor(zero)
    assert len(tc.lcms) == 1 and tc.lcm(0).is_one()
    assert list(tc.classes().items()) == [(tc.lcm(0), (0,))]
    assert tc.bridge_table() == ((),)
    assert tc.divisor_masks() == (0,)

    ctx = VariableContext(("x", "y"))
    single = MonomialIdeal(ctx, (ctx.monomial("x*y^2"),))
    tc = build_taylor(single)
    assert tc.lcm(0).is_one() and str(tc.lcm(1)) == "x*y^2"
    assert list(tc.classes().items()) == [(ctx.one(), (0,)), (ctx.monomial("x*y^2"), (1,))]
    assert tc.bridge_table() == ((), ())
    assert tc.divisor_masks() == (0, 1)


def test_cap_error_names_cap(run4):
    with pytest.raises(ValueError, match="^ideal has 4 generators, above the Taylor cap of 3; "):
        build_taylor(run4, max_generators=3)


def test_bridges_running_ideal(run4):
    table = build_taylor(run4).bridge_table()
    assert table[0b1111] == (0, 1, 2, 3)
    assert table[0b0111] == (1,)  # only x*y is removable from {yz, xy, wx}
    for cell in range(16):
        if cell.bit_count() <= 2:
            assert table[cell] == ()


def test_small_cells_never_have_bridges_on_corpus():
    for ideal in corpus_ideals(25):
        tc = build_taylor(ideal)
        table = tc.bridge_table()
        for cell in range(1 << ideal.n):
            found = table[cell]
            if cell.bit_count() <= 2:
                assert found == ()
            for b in found:
                assert cell & (1 << b)
                assert tc.lcm(cell ^ (1 << b)) == tc.lcm(cell)


def test_cached_tables_match_recomputation(run4, ex56):
    ideals = [cycle_edge_ideal(n) for n in range(3, 11)] + [run4, ex56, *corpus_ideals()]
    # m^3 in 3 variables, and the non-squarefree ideal with 77 labels
    ideals += [parse_ideal(CUBICS), parse_ideal(POWER_IDEAL)]
    for ideal in ideals:
        tc = build_taylor(ideal)
        classes = tc.classes()
        assert {label.exponents: cells for label, cells in classes.items()} == naive_classes(tc)
        assert all(tc.lcm(c) == label for label, cells in classes.items() for c in cells)
        # every label has a cell, and labels come in the order of their smallest cell
        assert list(classes) == list(tc.labels)
        firsts = [cells[0] for cells in classes.values()]
        assert firsts == sorted(firsts)
        # tc.lcms is a fresh list of one shared object per label
        assert tc.lcms == [tc.lcm(c) for c in range(1 << tc.n)] and tc.lcms is not tc.lcms
        assert len({id(m) for m in tc.lcms}) == len(tc.labels)
        table = tc.bridge_table()
        assert table == naive_bridge_table(tc)
        masks = tc.divisor_masks()
        assert masks == naive_divisor_masks(tc)
        labels = tc.packed_labels()
        fields, guards, code = labels
        assert len(code) == len(tc.labels)
        for k, label in enumerate(tc.labels):
            assert tuple(code[k] >> s & mask for s, mask in fields) == label.exponents
            assert code[k] & guards == 0
        widths = [max(m.exponents[v] for m in tc.labels).bit_length() for v in range(len(fields))]
        assert [mask for _, mask in fields] == [(1 << w) - 1 for w in widths]
        assert guards == sum(1 << (s + w) for (s, _), w in zip(fields, widths))
        # built once, then shared
        assert tc.classes() is classes and tc.bridge_table() is table
        assert tc.divisor_masks() is masks and tc.packed_labels() is labels


def test_bridges_with_single_and_shared_attainers():
    # in the lcm x^2*y^2*z^2*w of all five generators, x^2 and z^2 have two
    # attainers each while y^2 and w have one
    ideal = parse_ideal("vars: x y z w\ngens: x^2*y x^2*z y^2 x*z^2 z^2*w\n")
    tc = build_taylor(ideal)
    label = tc.lcm(0b11111)
    exponents = [g.exponents for g in ideal.generators]
    attainers = [
        sum(1 for g in exponents if g[v] == m) for v, m in enumerate(label.exponents) if m
    ]
    assert sorted(attainers) == [1, 1, 2, 2]
    table = tc.bridge_table()
    assert table == naive_bridge_table(tc)
    assert table[0b11111] == (0, 1, 3)


def test_cached_classes_are_read_only(run4):
    tc = build_taylor(run4)
    classes = tc.classes()
    label = tc.lcm(0b1111)
    with pytest.raises(TypeError):
        classes[label] = ()
    with pytest.raises(AttributeError):
        classes[label].append(0)
    with pytest.raises(TypeError):
        tc.bridge_table()[0b1111] = ()
    with pytest.raises(TypeError):
        tc.divisor_masks()[0b1111] = 0
    with pytest.raises(TypeError):
        tc.packed_labels()[2][0] = 0
    with pytest.raises(TypeError):
        tc.cell_label[0b1111] = 0
    with pytest.raises(TypeError):
        tc.labels[0] = label
    with pytest.raises(AttributeError):
        tc.lcms = []


def test_lcm_rejects_a_cell_outside_the_complex(run4):
    tc = build_taylor(run4)
    for cell in (-1, 16):
        with pytest.raises(ValueError, match=f"^cell {cell} is outside the cells 0..15 of the complex$"):
            tc.lcm(cell)


def test_equal_labels_fail_at_construction(run4):
    # one label per cell, each a fresh object: the equal ones must fail here,
    # not drop classes and fail later inside morse_differential
    tc = build_taylor(run4)
    copies = [Monomial(run4.context, m.exponents) for m in tc.lcms]
    with pytest.raises(ValueError, match=r"^labels 5 and 7 are equal \(w\*x\*y\*z\)$"):
        TaylorComplex(run4, copies, range(16))


@pytest.mark.parametrize(
    "cell_label, message",
    [
        (range(15), "^cell_label has 15 entries, not 16, one per cell$"),
        (range(17), "^cell_label has 17 entries, not 16, one per cell$"),
        # a negative index must not wrap around to the last label
        ([0] * 15 + [-1], r"^label index -1 is outside the labels 0\.\.9 of the complex$"),
        ([0] * 15 + [10], r"^label index 10 is outside the labels 0\.\.9 of the complex$"),
    ],
)
def test_malformed_cell_labels_fail_at_construction(run4, cell_label, message):
    labels = build_taylor(run4).labels
    with pytest.raises(ValueError, match=message):
        TaylorComplex(run4, labels, cell_label)


def test_smallest_bridge(run4):
    tc = build_taylor(run4)
    assert smallest_bridge(tc, 0b1111) == 0
    assert smallest_bridge(tc, 0b1101) == 3  # {yz, wx, wz}: only wz removable
    assert smallest_bridge(tc, 0b0011) is None


def test_incidence_sign_convention():
    full = cell_of((0, 2, 5))
    assert incidence_sign(full, full ^ (1 << 0)) == 1
    assert incidence_sign(full, full ^ (1 << 2)) == -1
    assert incidence_sign(full, full ^ (1 << 5)) == 1
    with pytest.raises(ValueError):
        incidence_sign(0b011, 0b100)
    with pytest.raises(ValueError):
        incidence_sign(0b111, 0b001)


def test_facet_sign_is_the_incidence_sign():
    for cell in range(1 << 7):
        for member in cell_members(cell):
            assert facet_sign(cell, member) == incidence_sign(cell, cell ^ (1 << member))


def test_taylor_differential_degree_one(run4):
    tc = build_taylor(run4)
    d1 = taylor_differential(tc, 1)
    assert d1.rows == (0,)
    assert d1.cols == (1, 2, 4, 8)
    for col, gen in enumerate(run4.generators):
        entry = d1.entries[(0, col)]
        assert entry.coefficient == 1
        assert entry.monomial_factor == gen


def test_taylor_differential_single_generator():
    ctx = VariableContext(("x",))
    single = MonomialIdeal(ctx, (ctx.monomial("x^3"),))
    d1 = taylor_differential(build_taylor(single), 1)
    assert d1.entries == {(0, 0): (1, ctx.monomial("x^3"))}


def test_taylor_differential_range_checked(run4):
    tc = build_taylor(run4)
    with pytest.raises(ValueError):
        taylor_differential(tc, 0)
    with pytest.raises(ValueError):
        taylor_differential(tc, 5)


def test_taylor_complex_squares_to_zero(run4, tri):
    for ideal in (run4, tri, *corpus_ideals(15)):
        assert verify_complex(taylor_chain_complex(build_taylor(ideal)))


def test_differential_factors_divide(run4):
    from morseideals import divides

    tc = build_taylor(run4)
    for i in range(1, 5):
        matrix = taylor_differential(tc, i)
        for (r, c), entry in matrix.entries.items():
            assert divides(tc.lcm(matrix.rows[r]), tc.lcm(matrix.cols[c]))
            assert quotient(tc.lcm(matrix.cols[c]), tc.lcm(matrix.rows[r])) == entry.monomial_factor
