from pathlib import Path

import pytest

from morseideals import (
    SimpleGraph,
    cycle_edge_ideal,
    edge_ideal,
    parse_graph,
    random_squarefree_ideal,
)
from morseideals.families import SplitMix64
from conftest import reference_random_squarefree_ideal

FIXTURES = Path(__file__).parent / "fixtures"


def test_cycle_small():
    tri = cycle_edge_ideal(3)
    assert tri.generator_strings == ("x1*x2", "x2*x3", "x1*x3")
    four = cycle_edge_ideal(4)
    assert four.generator_strings == ("x1*x2", "x2*x3", "x3*x4", "x1*x4")
    with pytest.raises(ValueError):
        cycle_edge_ideal(2)


def test_cycle_nine_matches_listing():
    nine = cycle_edge_ideal(9)
    expected = tuple(f"x{i}*x{i + 1}" for i in range(1, 9)) + ("x1*x9",)
    assert nine.generator_strings == expected


def test_cycle_generators_invariant_under_rotation():
    n = 7
    ideal = cycle_edge_ideal(n)
    supports = {tuple(g.exponents) for g in ideal.generators}
    rotated = {
        tuple(exps[-1:] + exps[:-1]) for exps in (list(g.exponents) for g in ideal.generators)
    }
    assert {tuple(s) for s in rotated} == supports
    assert all(g.degree() == 2 for g in ideal.generators)
    assert ideal.n == n


def test_edge_ideal_path_and_empty():
    path = SimpleGraph(3, ((1, 2), (2, 3)))
    assert edge_ideal(path).generator_strings == ("x1*x2", "x2*x3")
    lonely = SimpleGraph(2, ())
    assert edge_ideal(lonely).n == 0


def test_edge_ideal_of_cycle_graph_same_generators():
    n = 5
    graph = SimpleGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))
    assert set(edge_ideal(graph).generator_strings) == set(
        cycle_edge_ideal(n).generator_strings
    )


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(3, ((1, 1),))
    with pytest.raises(ValueError, match="range"):
        SimpleGraph(2, ((1, 3),))
    with pytest.raises(ValueError, match="duplicate"):
        SimpleGraph(3, ((1, 2), (2, 1)))


def test_parse_graph_fixture():
    graph = parse_graph((FIXTURES / "square.graph").read_text())
    assert graph.vertex_count == 4
    assert graph.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    with pytest.raises(ValueError):
        parse_graph("3 2\n1 2\n")
    with pytest.raises(ValueError, match="must start with a 'V E' line"):
        parse_graph("3 x\n1 2\n")
    with pytest.raises(ValueError, match="malformed edge line '1 b'"):
        parse_graph("3 1\n1 b\n")


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert first == rng2.next_u64()
    assert SplitMix64(1).next_u64() != first


def test_random_ideal_deterministic():
    a = random_squarefree_ideal(42, 5, 4)
    b = random_squarefree_ideal(42, 5, 4)
    assert a == b
    assert a.generator_strings == ("x2*x3*x4", "x1*x3", "x3*x4*x5", "x1*x2*x4*x5")


def test_random_ideal_minimal_and_squarefree():
    for seed in range(50):
        ideal = random_squarefree_ideal(seed, 3 + seed % 4, 2 + seed % 5)
        assert ideal.n >= 1
        for g in ideal.generators:
            assert g.is_squarefree and g.degree() >= 2


def test_random_ideal_matches_the_re_minimizing_loop():
    # the benchmark corpus triples of seeds 0-3, then both size extremes
    triples = [(s, 4 + s % 5, 3 + s % 5) for s in range(1600)]
    triples += [(s, 2, 3) for s in range(20)] + [(s, 12, 10) for s in range(20)]
    for triple in triples:
        assert random_squarefree_ideal(*triple) == reference_random_squarefree_ideal(*triple)


def test_random_ideal_two_variables_saturates():
    ideal = random_squarefree_ideal(7, 2, 3)
    assert ideal.n <= 2
    assert ideal.generator_strings == ("x1*x2",)


def test_random_ideal_bounds():
    with pytest.raises(ValueError):
        random_squarefree_ideal(0, 13, 2)
    with pytest.raises(ValueError):
        random_squarefree_ideal(0, 4, 11)
    with pytest.raises(ValueError):
        random_squarefree_ideal(0, 1, 1)
