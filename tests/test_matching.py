import itertools
import random
import re
from functools import partial

import pytest

from morseideals import (
    Matching,
    MonomialIdeal,
    VariableContext,
    bm_matching,
    build_taylor,
    cell_members,
    critical_cells,
    critical_family,
    cycle_edge_ideal,
    is_bridge_friendly,
    lyubeznik_matching,
    morse_differential,
    parse_ideal,
    possible_edges_with_positions,
    random_squarefree_ideal,
    trimmed_matching,
    validate_matching,
)
from morseideals.matching import (
    PossibleEdge,
    _bridge_pairing,
    _has_directed_cycle,
    _payload,
    _sweep,
)
from conftest import (
    CUBICS,
    POWER_IDEAL,
    cell_of,
    corpus_ideals,
    edge_set,
    lyu_min,
    lyu_value,
    naive_is_acyclic,
    reference_bm_matching,
    reference_is_bridge_friendly,
    reference_lyubeznik_matching,
    reference_possible_edges,
    reference_trimmed_matching,
    resolve_duplicate_targets,
    sweep_cells,
)

FULL = 0b1111


def test_possible_edges_running_ideal(run4):
    tc = build_taylor(run4)
    assert possible_edges_with_positions(tc) == [
        PossibleEdge(0, 0b1111, 0b1110),
        PossibleEdge(1, 0b0111, 0b0101),
        PossibleEdge(0, 0b1011, 0b1010),
        PossibleEdge(3, 0b1101, 0b0101),
    ]


def test_possible_edges_small_and_triangle(tri):
    ctx = VariableContext(("x", "y"))
    two = MonomialIdeal(ctx, (ctx.monomial("x"), ctx.monomial("y")))
    assert possible_edges_with_positions(build_taylor(two)) == []

    tc = build_taylor(tri)
    assert possible_edges_with_positions(tc) == [PossibleEdge(0, 0b111, 0b110)]


def test_bm_matching_running_ideal(run4):
    tc = build_taylor(run4)
    m = bm_matching(tc)
    assert set(m.edges) == {(0b1111, 0b1110), (0b0111, 0b0101), (0b1011, 0b1010)}
    # the fourth possible edge is removed by the duplicate-target step
    assert (0b1101, 0b0101) in {(pe.source, pe.target) for pe in possible_edges_with_positions(tc)}
    assert (0b1101, 0b0101) not in edge_set(m)


def test_bm_matching_trivial_cases():
    zero = MonomialIdeal(VariableContext(("x",)), ())
    assert len(bm_matching(build_taylor(zero))) == 0


def test_family_closure_checked(run4):
    tc = build_taylor(run4)
    # {yz,xy,wx} pairs with {yz,wx}, which is missing from this family
    family = [0b0111, 0b0011, 0b0110]
    with pytest.raises(ValueError, match="closed"):
        _bridge_pairing(tc, range(tc.n), family)


def test_lyu_values_ex56(ex56):
    tc = build_taylor(ex56)
    # positions: m6=0, m5=1, m4=2, m3=3, m2=4, m1=5
    sigma1 = cell_of((5, 2, 1))
    sigma2 = cell_of((5, 4, 3))
    sigma3 = cell_of((4, 3, 2))
    assert lyu_value(tc, sigma1) == 3
    assert lyu_min(tc, sigma1) == 0
    assert lyu_value(tc, sigma2) == 2
    assert lyu_min(tc, sigma2) == 3
    assert lyu_value(tc, sigma3) is None
    with pytest.raises(ValueError):
        lyu_min(tc, sigma3)


def test_lyu_value_running_full_cell(run4):
    tc = build_taylor(run4)
    assert lyu_value(tc, FULL) == 3
    assert lyu_min(tc, FULL) == 0  # y*z


def test_lyubeznik_matching_running_ideal(run4):
    tc = build_taylor(run4)
    m = lyubeznik_matching(tc)
    assert set(m.edges) == {(0b1111, 0b1110), (0b1011, 0b1010)}


def test_lyubeznik_matching_ex56_edges(ex56):
    tc = build_taylor(ex56)
    m = lyubeznik_matching(tc)
    sigma1 = cell_of((5, 2, 1))
    sigma2 = cell_of((5, 4, 3))
    sigma3 = cell_of((4, 3, 2))
    assert (sigma1 | 1, sigma1) in edge_set(m)
    assert (sigma2, sigma2 & ~(1 << 3)) in edge_set(m)
    assert all(sigma3 not in edge for edge in m.edges)


def test_lyubeznik_single_generator():
    ctx = VariableContext(("x", "y"))
    single = MonomialIdeal(ctx, (ctx.monomial("x*y"),))
    assert len(lyubeznik_matching(build_taylor(single))) == 0


def test_lyubeznik_matching_equals_divides_reference(run4, ex56):
    ideals = [cycle_edge_ideal(n) for n in range(3, 9)] + [run4, ex56, *corpus_ideals()]
    ideals += [parse_ideal(POWER_IDEAL), parse_ideal(CUBICS)]
    for base in (run4, cycle_edge_ideal(5)):
        ideals += [base.reordered(p) for p in itertools.permutations(range(base.n))]
    for ideal in ideals:
        tc = build_taylor(ideal)
        assert lyubeznik_matching(tc) == reference_lyubeznik_matching(tc), ideal.generator_strings


def test_trimmed_matching_running_ideal(run4):
    tc = build_taylor(run4)
    assert trimmed_matching(tc, (0, 1, 2, 3)).edges == ((0b0111, 0b0101),)


def test_trimmed_matching_small_and_triangle(tri):
    ctx = VariableContext(("x", "y"))
    two = MonomialIdeal(ctx, (ctx.monomial("x"), ctx.monomial("y")))
    assert len(trimmed_matching(build_taylor(two), (0, 1))) == 0
    # the full cell is Lyubeznik-matched, so no cardinality-3 cells remain
    for order2 in ((0, 1, 2), (2, 1, 0)):
        assert len(trimmed_matching(build_taylor(tri), order2)) == 0


def test_trimmed_requires_permutation(run4):
    tc = build_taylor(run4)
    with pytest.raises(ValueError):
        trimmed_matching(tc, (0, 1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        bm_matching(tc, (0, 1, 2, 2))


def test_one_shot_orders_give_the_list_order_result():
    ideal = cycle_edge_ideal(5)
    tc = build_taylor(ideal)
    order = [4, 2, 0, 3, 1]
    assert len(bm_matching(tc, iter(range(5)))) == 10
    for build in (partial(bm_matching, tc), partial(trimmed_matching, tc), ideal.reordered):
        expected = build(order)
        assert build(iter(order)) == expected
        assert build(g for g in order) == expected
    for bad in (iter([0, 1, 2, 3]), (g for g in [0, 1, 2, 3, 3])):
        with pytest.raises(ValueError, match="is not a permutation of 0..4"):
            bm_matching(tc, bad)


class _Index:
    """An integer-like order entry, read through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize(
    "bad",
    [[0.0, 1, 2, 3, 4], [4, 3, 2, 1, 0.0], [0, 1.5, 2, 3, 4], ["0", 1, 2, 3, 4], [0, 1, 2, 3, None]],
)
def test_non_integer_orders_are_rejected(bad):
    ideal = cycle_edge_ideal(5)
    tc = build_taylor(ideal)
    message = f"^{re.escape(f'{tuple(bad)} is not a permutation of 0..4')}$"
    for build in (partial(bm_matching, tc), partial(trimmed_matching, tc), ideal.reordered):
        with pytest.raises(ValueError, match=message):
            build(bad)
        with pytest.raises(ValueError, match=message):
            build(iter(bad))
        # entries with __index__ count as the integers they stand for
        assert build([_Index(g) for g in (4, 2, 0, 3, 1)]) == build([4, 2, 0, 3, 1])


def test_critical_cells_running_ideal(run4):
    tc = build_taylor(run4)
    assert critical_cells(tc, bm_matching(tc)) == [
        [],
        [0b1101],
        [0b0011, 0b0110, 0b1001, 0b1100],
        [1, 2, 4, 8],
    ]
    assert [len(g) for g in critical_cells(tc, lyubeznik_matching(tc))] == [0, 2, 5, 4]
    everything = critical_cells(tc, Matching.from_pairs(()))
    assert [len(g) for g in everything] == [1, 4, 6, 4]


def test_critical_cells_trimmed_family(run4):
    tc = build_taylor(run4)
    lyu = lyubeznik_matching(tc)
    family = critical_family(tc, lyu)
    trimmed = trimmed_matching(tc, (0, 1, 2, 3))
    assert critical_cells(tc, trimmed, family) == [
        [],
        [0b1101],
        [0b0011, 0b0110, 0b1001, 0b1100],
        [1, 2, 4, 8],
    ]


def test_bridge_friendly(run4, tri):
    assert not is_bridge_friendly(build_taylor(run4))
    for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert is_bridge_friendly(build_taylor(tri.reordered(order)))
    ctx = VariableContext(("x", "y"))
    two = MonomialIdeal(ctx, (ctx.monomial("x"), ctx.monomial("y")))
    assert is_bridge_friendly(build_taylor(two))


def test_validate_matching_flags(run4):
    tc = build_taylor(run4)
    assert validate_matching(tc, bm_matching(tc)) == (True, True, True)
    assert validate_matching(tc, lyubeznik_matching(tc)) == (True, True, True)

    inhomogeneous = Matching.from_pairs([(0b0011, 0b0001)])
    report = validate_matching(tc, inhomogeneous)
    assert report.is_matching and not report.is_homogeneous

    overlapping = Matching.from_pairs([(0b1111, 0b1110), (0b1110, 0b0110)])
    assert not validate_matching(tc, overlapping).is_matching
    # an edge set that is not a matching is never an acyclic matching
    assert validate_matching(tc, overlapping).is_acyclic is False


# three homogeneous, vertex-disjoint edges of ex56 whose reversal closes a
# gradient cycle inside one lcm class
EX56_CYCLIC = ((0b110111, 0b110011), (0b111011, 0b111001), (0b111101, 0b110101))


def test_validate_matching_on_shared_taylor_complex(run4, ex56):
    """Reports on one reused complex equal reports on a fresh one each time:
    the cached class and bridge tables and the report memo carry nothing
    from matching to matching.  A report asked for again, or for the same
    edges in another order, is the fresh one; the memo keeps only the last
    edge tuple, and an edge set that raises raises on every call without
    entering it."""

    def matchings(ideal, tc):
        full = (1 << ideal.n) - 1
        out = {
            "bm": bm_matching(tc),
            "lyubeznik": lyubeznik_matching(tc),
            "trimmed": trimmed_matching(tc, range(ideal.n)),
            "empty": Matching.from_pairs(()),
            "inhomogeneous": Matching.from_pairs([(0b0011, 0b0001)]),
            "overlapping": Matching.from_pairs([(full, full ^ 1), (full ^ 1, full ^ 0b11)]),
        }
        if ideal is ex56:
            out["cyclic"] = Matching.from_pairs(EX56_CYCLIC)
        return out

    for ideal in (run4, ex56):
        shared = build_taylor(ideal)
        named = matchings(ideal, shared)
        fresh = {
            name: validate_matching(build_taylor(ideal), matching)
            for name, matching in matchings(ideal, build_taylor(ideal)).items()
        }
        for order in (list(named), list(reversed(named))):
            for _ in range(2):
                assert {name: validate_matching(shared, named[name]) for name in order} == fresh
        for name, matching in named.items():
            backwards = Matching(matching.edges[::-1])
            assert validate_matching(shared, backwards) == fresh[name], name
        kept = dict(shared._reports)
        assert list(kept) == [backwards.edges]
        outside = Matching(((1 << ideal.n, 0),))
        message = f"matching cell {1 << ideal.n} is outside the cells 0..{(1 << ideal.n) - 1}"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                validate_matching(shared, outside)
            assert shared._reports == kept
        assert fresh["inhomogeneous"] == (True, False, True)
        assert not fresh["overlapping"].is_matching
        if ideal is ex56:
            assert fresh["cyclic"] == (True, True, False)


@pytest.mark.parametrize(
    "pairs,outside",
    [
        # negative cells would wrap around in the lcm table
        ([(-1, -2)], -1),
        ([(0b0011, 0b0001), (-1, -2)], -1),
        # C4 has the cells 0..15
        ([(0b10001, 0b10000)], 17),
        ([(0b1111, 0b0111), (0b10001, 0b10000)], 17),
    ],
)
def test_cells_outside_the_complex_are_rejected(pairs, outside):
    tc = build_taylor(cycle_edge_ideal(4))
    matching = Matching.from_pairs(pairs)
    message = f"matching cell {outside} is outside the cells 0..15 of the complex"
    for check in (validate_matching, morse_differential):
        with pytest.raises(ValueError) as info:
            check(tc, matching)
        assert str(info.value) == message


def test_matching_rejects_non_facet_pairs():
    with pytest.raises(ValueError):
        Matching.from_pairs([(0b0111, 0b0001)])


@pytest.mark.parametrize("edge", [(3.7, 1), ("3", "1"), (3, 1.0), (None, 1)])
def test_matching_rejects_non_integer_endpoints(edge):
    # each would otherwise read as, or fail like, the facet pair (3, 1)
    with pytest.raises(ValueError) as info:
        Matching.from_pairs([(0b11, 0b10), edge])
    assert str(info.value) == f"edge ({edge[0]!r}, {edge[1]!r}) has a non-integer endpoint"


@pytest.mark.parametrize("edge", [(0b1010, 0b0101), (0b1110, 0b0101), (0b1111, 0b0101)])
def test_validation_rejects_non_facet_edges(edge):
    # built directly, so the check in from_pairs never ran
    tc = build_taylor(cycle_edge_ideal(4))
    matching = Matching((edge,))
    message = f"edge ({edge[0]:#x}, {edge[1]:#x}) is not a facet pair"
    with pytest.raises(ValueError) as info:
        Matching.from_pairs([edge])
    assert str(info.value) == message
    for check in (validate_matching, morse_differential):
        with pytest.raises(ValueError) as info:
            check(tc, matching)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "family,outside",
    [
        ([0, -1], -1),
        ([0, 16], 16),
        ([0, -1, 16], -1),
        ([0, 0b0011], "family is not closed under facets at cell 0x3"),
        # the BM matching pairs no cell of cardinality below 2
        ([0, 1, 2, 4, 8], "matching touches cells outside the family"),
    ],
)
def test_family_cells_outside_the_complex_are_rejected(run4, family, outside):
    """Both entry points check a family the same way: inside the complex,
    closed under facets and holding every matched cell."""
    tc = build_taylor(run4)
    bm = bm_matching(tc)
    message = outside
    if isinstance(outside, int):
        message = f"family cell {outside} is outside the cells 0..15 of the complex"
    for check in (critical_cells, morse_differential):
        with pytest.raises(ValueError) as info:
            check(tc, bm, family)
        assert str(info.value) == message


def test_critical_cells_validates_the_matching(tri):
    """An edge set that is not a matching fails at both entry points with
    one message, also after a validation has stored its report."""
    tc = build_taylor(tri)
    shared_source = Matching.from_pairs([(0b111, 0b011), (0b111, 0b101)])
    message = (
        "matching fails validation: "
        "MatchingReport(is_matching=False, is_homogeneous=True, is_acyclic=False)"
    )
    for _ in range(2):
        for check in (critical_cells, morse_differential):
            with pytest.raises(ValueError) as info:
                check(tc, shared_source)
            assert str(info.value) == message


def test_cycle_detector():
    assert _has_directed_cycle({1: [2], 2: [3], 3: [1]})
    assert _has_directed_cycle({1: [1], 2: []})
    assert not _has_directed_cycle({1: [2, 3], 2: [3], 3: []})
    # a node without successors may be left out
    assert not _has_directed_cycle({1: [2, 3], 2: [3]})
    assert _has_directed_cycle({1: [2, 4], 2: [3], 3: [2]})
    assert not _has_directed_cycle({})


def _random_edge_sets(tc, rng, count):
    """Seeded random facet edge sets on ``tc`` of random density, mostly
    lcm-preserving so that gradient cycles are common: every third set is
    homogeneous, and every fifth may overlap."""
    table = tc.bridge_table()
    for k in range(count):
        used, pairs = set(), []
        density = rng.choice((0.1, 0.3, 0.9))
        cells = list(range(1, 1 << tc.n))
        rng.shuffle(cells)
        for s in cells:
            if k % 3 == 0 or (table[s] and rng.random() < 0.8):
                members = table[s]
            else:
                members = cell_members(s)
            if not members:
                continue
            t = s ^ (1 << rng.choice(members))
            if (k % 5 == 0 or not {s, t} & used) and rng.random() < density:
                used |= {s, t}
                pairs.append((s, t))
        yield Matching.from_pairs(pairs)


def test_acyclicity_matches_the_full_hasse_diagram(run4, tri, ex56, corpus):
    """The verdict on the matched targets alone equals a DFS over every cell
    of the modified Hasse diagram, on seeded random edge sets: cyclic ones,
    ones with inhomogeneous edges, and overlapping ones, which are never
    acyclic matchings."""
    rng = random.Random(14)
    quadrics = "vars: w x y z\ngens: w^2 w*x w*y w*z x^2 x*y x*z y^2 y*z z^2\n"
    ideals = [run4, tri, ex56, parse_ideal(CUBICS), parse_ideal(quadrics)]
    ideals += [cycle_edge_ideal(n) for n in range(4, 9)] + corpus[:40]
    seen = set()
    for ideal in ideals:
        tc = build_taylor(ideal)
        for matching in _random_edge_sets(tc, rng, 10 if ideal.n < 10 else 20):
            report = validate_matching(tc, matching)
            expected = report.is_matching and naive_is_acyclic(tc, matching)
            assert report.is_acyclic == expected, (ideal.generator_strings, matching.edges)
            seen.add(tuple(report))
    # cyclic and acyclic matchings, homogeneous or not, and overlapping sets
    assert {(True, h, a) for h in (True, False) for a in (True, False)} <= seen
    assert {(False, h, False) for h in (True, False)} <= seen


def test_duplicate_target_resolution_prefers_smaller_bridge():
    edges = [PossibleEdge(1, 0b0111, 0b0101), PossibleEdge(3, 0b1101, 0b0101)]
    m = resolve_duplicate_targets(edges)
    assert m.edges == ((0b0111, 0b0101),)


def test_bm_invariant_under_within_level_shuffles(run4):
    rng = random.Random(7)
    for ideal in (run4, *corpus_ideals(10)):
        tc = build_taylor(ideal)
        reference = bm_matching(tc)
        cells = [c for c in range(1 << ideal.n) if c.bit_count() >= 3]
        for _ in range(5):
            by_level = {}
            for c in cells:
                by_level.setdefault(c.bit_count(), []).append(c)
            shuffled = []
            for level in sorted(by_level, reverse=True):
                block = by_level[level][:]
                rng.shuffle(block)
                shuffled.extend(block)
            edges = sweep_cells(tc, shuffled)
            assert resolve_duplicate_targets(edges).edges == reference.edges
            assert {(pe.source, pe.target) for pe in edges} == {
                (pe.source, pe.target) for pe in possible_edges_with_positions(tc)
            }


def test_possible_edges_contain_matching_on_corpus():
    for ideal in corpus_ideals(20):
        tc = build_taylor(ideal)
        pe = {(e.source, e.target) for e in possible_edges_with_positions(tc)}
        m = bm_matching(tc)
        assert edge_set(m) <= pe
        # singleton cells stay critical in both constructions
        lyu = lyubeznik_matching(tc)
        for i in range(ideal.n):
            assert (1 << i) not in m.touched
            assert (1 << i) not in lyu.touched


def test_bitset_kernel_equals_the_cell_by_cell_reference(run4, ex56, tri):
    """Every construction read off the bitset sweep equals the cell-by-cell
    sweep with its separate duplicate-target step."""
    ideals = [cycle_edge_ideal(n) for n in range(3, 9)] + [run4, ex56, tri]
    ideals += [parse_ideal(CUBICS), *corpus_ideals()]
    for ideal in ideals:
        tc = build_taylor(ideal)
        n = ideal.n
        assert bm_matching(tc) == reference_bm_matching(tc), ideal
        assert possible_edges_with_positions(tc) == reference_possible_edges(tc), ideal
        assert is_bridge_friendly(tc) == reference_is_bridge_friendly(tc), ideal
        if n <= 5:
            orders = list(itertools.permutations(range(n)))
        else:
            orders = [tuple(range(n)), tuple(reversed(range(n)))]
        for order2 in orders:
            assert trimmed_matching(tc, order2) == reference_trimmed_matching(tc, order2), (
                ideal,
                order2,
            )


def test_family_sweep_ranks_count_the_family_cells(run4):
    """On a family, the sweep's ranks are the critical cells per cardinality
    of the trimmed matching, the empty cell included."""
    rng = random.Random(16)
    ideals = [run4, cycle_edge_ideal(7), *corpus_ideals()]
    ideals += [random_squarefree_ideal(seed, 5, 7) for seed in range(10)]
    for ideal in ideals:
        tc = build_taylor(ideal)
        n = ideal.n
        assert n <= 7
        family = critical_family(tc, lyubeznik_matching(tc))
        work = _payload(tc, None, family)
        for _ in range(3):
            order = tuple(rng.sample(range(n), n))
            groups = critical_cells(tc, trimmed_matching(tc, order), family)
            ranks = _sweep(order, work)
            assert ranks == (1, *(len(groups[n - k]) for k in range(1, n + 1))), (ideal, order)
