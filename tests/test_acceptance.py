"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line on success (visible with ``pytest -s``);
a failure raises normally.  The long cycle searches are marked slow and run
with ``pytest -m slow``.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from morseideals import (
    Matching,
    betti_numbers,
    bm_matching,
    bridge_friendly_list,
    bridge_minimal_search,
    build_taylor,
    critical_cells,
    critical_family,
    cycle_edge_ideal,
    homology_ranks,
    is_bridge_friendly,
    is_minimal,
    lyubeznik_matching,
    morse_differential,
    possible_edges_with_positions,
    ranks,
    trimmed_matching,
    validate_matching,
    verify_complex,
)
from morseideals.cli import main
from morseideals.families import SplitMix64
from morseideals.matching import PossibleEdge
from conftest import (
    cell_of,
    edge_set,
    exact_rank,
    lyu_min,
    lyu_value,
    naive_homology_ranks,
    naive_rank,
    resolve_duplicate_targets,
    sweep_cells,
    taylor_chain_complex,
)

WORKERS = 2


@contextmanager
def criterion(ident, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {ident} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {ident} {label}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_run4_barile_macchia_suite(run4):
    with criterion(1, "RUN4 Barile-Macchia suite"):
        tc = build_taylor(run4)
        assert possible_edges_with_positions(tc) == [
            PossibleEdge(0, 0b1111, 0b1110),
            PossibleEdge(1, 0b0111, 0b0101),
            PossibleEdge(0, 0b1011, 0b1010),
            PossibleEdge(3, 0b1101, 0b0101),
        ]
        matching = bm_matching(tc)
        assert set(matching.edges) == {
            (0b1111, 0b1110),
            (0b0111, 0b0101),
            (0b1011, 0b1010),
        }
        assert is_bridge_friendly(tc) is False
        assert critical_cells(tc, matching) == [
            [],
            [0b1101],
            [0b0011, 0b0110, 0b1001, 0b1100],
            [0b0001, 0b0010, 0b0100, 0b1000],
        ]
        complex_ = morse_differential(tc, matching)
        assert ranks(complex_) == [1, 4, 4, 1, 0]
        assert is_minimal(complex_) is True
        assert betti_numbers(tc).totals == (1, 4, 4, 1, 0)


def test_criterion_2_run4_lyubeznik_suite(run4):
    with criterion(2, "RUN4 Lyubeznik suite"):
        tc = build_taylor(run4)
        matching = lyubeznik_matching(tc)
        assert set(matching.edges) == {(0b1111, 0b1110), (0b1011, 0b1010)}
        groups = critical_cells(tc, matching)
        assert [len(g) for g in groups] == [0, 2, 5, 4]
        assert groups[1] == [0b0111, 0b1101]
        assert groups[2] == [0b0011, 0b0101, 0b0110, 0b1001, 0b1100]
        complex_ = morse_differential(tc, matching)
        assert ranks(complex_) == [1, 4, 5, 2, 0]
        assert is_minimal(complex_) is False


def test_criterion_3_run4_trimmed_suite(run4):
    with criterion(3, "RUN4 trimmed suite"):
        tc = build_taylor(run4)
        matching = trimmed_matching(tc, (0, 1, 2, 3))
        assert matching.edges == ((0b0111, 0b0101),)
        family = critical_family(tc, lyubeznik_matching(tc))
        assert critical_cells(tc, matching, family) == [
            [],
            [0b1101],
            [0b0011, 0b0110, 0b1001, 0b1100],
            [0b0001, 0b0010, 0b0100, 0b1000],
        ]
        complex_ = morse_differential(tc, matching, family)
        assert ranks(complex_) == [1, 4, 4, 1, 0]
        assert is_minimal(complex_) is True


def test_criterion_4_triangle_catalog(tri):
    with criterion(4, "TRI bridge-friendly catalog"):
        pairs = bridge_friendly_list(tri, workers=1)
        assert [perm for perm, _ in pairs] == [
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ]
        for perm, matching in pairs:
            assert len(matching) == 1
            # the full cell pairs with its two larger generators
            assert matching.edges[0] == (0b111, 0b110)
            reordered = tri.reordered(perm)
            assert matching.edges == bm_matching(build_taylor(reordered)).edges


def test_criterion_5_run4_order_search_empty(run4):
    with criterion(5, "RUN4 24-order search"):
        assert bridge_friendly_list(run4, workers=1) == []


def test_criterion_6_ex56_lyubeznik_values(ex56):
    with criterion(6, "EX56 Lyubeznik values"):
        tc = build_taylor(ex56)
        sigma1 = cell_of((5, 2, 1))
        sigma2 = cell_of((5, 4, 3))
        sigma3 = cell_of((4, 3, 2))
        assert lyu_value(tc, sigma1) == 3
        assert lyu_min(tc, sigma1) == 0  # m6
        assert lyu_value(tc, sigma2) == 2
        assert lyu_min(tc, sigma2) == 3  # m3
        assert lyu_value(tc, sigma3) is None
        matching = lyubeznik_matching(tc)
        assert (sigma1 | 0b1, sigma1) in edge_set(matching)
        assert (sigma2, sigma2 ^ (1 << 3)) in edge_set(matching)
        assert all(sigma3 not in edge for edge in matching.edges)


def _assert_table1_row(n, friendly_expected):
    ideal = cycle_edge_ideal(n)
    friendly = bridge_friendly_list(ideal, workers=WORKERS)
    if friendly_expected:
        assert friendly, f"C{n} should be bridge-friendly for some order"
    else:
        assert friendly == [], f"C{n} should not be bridge-friendly"
        found = bridge_minimal_search(ideal, workers=WORKERS)
        assert found.order is not None, f"C{n} should be bridge-minimal"
        # verify the witness through the public path
        reordered = ideal.reordered(found.order)
        rtc = build_taylor(reordered)
        complex_ = morse_differential(rtc, bm_matching(rtc))
        assert tuple(ranks(complex_)) == found.ranks
        assert found.ranks == betti_numbers(rtc).totals


def test_criterion_7_table1_fast_rows():
    with criterion(7, "Table 1 fast rows (C3-C7)"):
        for n in (3, 5, 6):
            _assert_table1_row(n, friendly_expected=True)
        for n in (4, 7):
            _assert_table1_row(n, friendly_expected=False)


@pytest.mark.slow
def test_criterion_7_table1_c8_row():
    with criterion(7, "Table 1 slow row (C8)"):
        _assert_table1_row(8, friendly_expected=False)


@pytest.mark.slow
def test_criterion_8_c9_extended_row():
    with criterion(8, "Table 1 extended row (C9)"):
        c9 = cycle_edge_ideal(9)
        assert bridge_friendly_list(c9, workers=WORKERS) == []
        result = bridge_minimal_search(c9, mode="exhaustive", workers=WORKERS)
        assert result.order is None
        assert result.orders_tried == math.factorial(9) == 362880
        assert betti_numbers(build_taylor(c9)).totals == (1, 9, 27, 39, 27, 9, 2, 0, 0, 0)


@pytest.mark.slow
def test_criterion_8_c10_first_hit_budget():
    with criterion(8, "C10 first-hit witness (budget 50000 orders)"):
        c10 = cycle_edge_ideal(10)
        result = bridge_minimal_search(c10, workers=WORKERS, limit=50000)
        assert result.order is not None, "no witness within the 50000-order budget"
        reordered = c10.reordered(result.order)
        rtc = build_taylor(reordered)
        assert tuple(ranks(morse_differential(rtc, bm_matching(rtc)))) == result.ranks
        assert result.ranks == betti_numbers(rtc).totals


@pytest.mark.slow
def test_criterion_8_c10_exhaustive_row():
    with criterion(8, "Table 1 extended row (C10, all 10! orders)"):
        c10 = cycle_edge_ideal(10)
        first = bridge_minimal_search(c10, workers=WORKERS, limit=50000)
        result = bridge_minimal_search(c10, mode="exhaustive", workers=WORKERS)
        assert result.orders_tried == math.factorial(10) == 3628800
        assert result.order == first.order == (0, 2, 1, 4, 6, 5, 8, 7, 3, 9)
        assert result.ranks == first.ranks == (1, 10, 35, 60, 55, 30, 10, 1, 0, 0, 0)


@pytest.mark.slow
def test_criterion_8_c11_orders_starting_with_generator_0():
    with criterion(8, "C11 orders starting with generator 0 (the first 10! orders)"):
        c11 = cycle_edge_ideal(11)
        result = bridge_minimal_search(
            c11, limit=math.factorial(10), workers=WORKERS, force=True
        )
        # no witness among the orders scanned; nothing is claimed of the rest
        assert (result.order, result.ranks) == (None, None)
        assert result.orders_tried == math.factorial(10)
        assert result.orders_total == math.factorial(11)


@pytest.mark.slow
def test_criterion_8_c12_exhaustive_row():
    with criterion(8, "C12 exhaustive search (all 12! orders)"):
        result = bridge_minimal_search(
            cycle_edge_ideal(12), mode="exhaustive", workers=WORKERS, force=True
        )
        assert (result.order, result.ranks) == (None, None)
        assert result.orders_tried == result.orders_total == math.factorial(12)


@pytest.mark.slow
def test_criterion_8_c12_check_every_kind(capsys):
    with criterion(8, "C12 check, every kind against the oracle"):
        assert main(["check", "--cycle", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["betti_totals"] == [1, 12, 54, 124, 165, 132, 58, 12, 2, 0, 0, 0, 0]
        assert [entry["kind"] for entry in payload["results"]] == [
            "bm", "lyubeznik", "trimmed", "empty"
        ]


def test_criterion_9_property_suite(corpus):
    with criterion(9, "corpus property suite (100 ideals)"):
        assert len(corpus) == 100
        for ideal in corpus:
            tc = build_taylor(ideal)
            n = ideal.n
            totals = list(betti_numbers(tc).totals)
            bm = bm_matching(tc)
            lyu = lyubeznik_matching(tc)
            trimmed = trimmed_matching(tc, tuple(range(n)))
            family = critical_family(tc, lyu)
            empty = Matching.from_pairs(())
            rank_lists = {}
            for kind, matching, fam in (
                ("bm", bm, None),
                ("lyubeznik", lyu, None),
                ("trimmed", trimmed, family),
                ("empty", empty, None),
            ):
                assert validate_matching(tc, matching).all_ok, (kind, ideal)
                complex_ = morse_differential(tc, matching, fam)
                assert verify_complex(complex_), (kind, ideal)
                assert homology_ranks(complex_) == totals, (kind, ideal)
                values = ranks(complex_)
                assert is_minimal(complex_) == (values == totals), (kind, ideal)
                rank_lists[kind] = values
            possible = possible_edges_with_positions(tc)
            assert edge_set(bm) <= {(pe.source, pe.target) for pe in possible}
            for i in range(n + 1):
                assert rank_lists["trimmed"][i] <= rank_lists["lyubeznik"][i]
                assert rank_lists["lyubeznik"][i] <= math.comb(n, i)
                assert totals[i] <= rank_lists["bm"][i] <= math.comb(n, i)


def test_criterion_10_determinism(corpus):
    with criterion(10, "determinism (shuffles and worker counts)"):
        rng = random.Random(99)
        for ideal in corpus:
            tc = build_taylor(ideal)
            reference = bm_matching(tc)
            cells = [c for c in range(1 << ideal.n) if c.bit_count() >= 3]
            for _ in range(20):
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

        c5 = cycle_edge_ideal(5)
        c4 = cycle_edge_ideal(4)
        base_list = [
            (perm, m.edges) for perm, m in bridge_friendly_list(c5, workers=1)
        ]
        base_search = bridge_minimal_search(c4, workers=1)
        for workers in (2, 8):
            again = [
                (perm, m.edges) for perm, m in bridge_friendly_list(c5, workers=workers)
            ]
            assert again == base_list
            result = bridge_minimal_search(c4, workers=workers)
            assert (result.order, result.ranks) == (base_search.order, base_search.ranks)


def test_criterion_11_oracle_self_check(corpus):
    with criterion(11, "oracle self-check"):
        rng = SplitMix64(777)
        for _ in range(200):
            nrows = 1 + rng.below(12)
            ncols = 1 + rng.below(12)
            matrix = [
                [rng.below(11) - 5 for _ in range(ncols)] for _ in range(nrows)
            ]
            assert exact_rank(matrix) == naive_rank(matrix)
        for ideal in corpus:
            tc = build_taylor(ideal)
            taylor = taylor_chain_complex(tc)
            assert homology_ranks(taylor) == naive_homology_ranks(taylor) == list(
                betti_numbers(tc).totals
            )
