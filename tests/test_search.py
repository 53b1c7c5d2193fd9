import itertools
import math
import multiprocessing.process
import random
import signal
import threading

import pytest

from morseideals import (
    betti_numbers,
    bm_matching,
    bridge_friendly_list,
    bridge_minimal_search,
    build_taylor,
    critical_family,
    cycle_edge_ideal,
    edge_ideal,
    is_bridge_friendly,
    lyubeznik_matching,
    parse_ideal,
    random_squarefree_ideal,
)
from morseideals import search
from morseideals.cli import main
from morseideals.families import SimpleGraph
from morseideals.search import (
    SearchWorkerError,
    _automorphisms,
    _chunk_bounds,
    _run_chunks,
    _scan,
)
from morseideals.matching import _payload, _sweep
from conftest import (
    corpus_ideals,
    enumerate_orders,
    reference_bm_matching,
    reference_is_bridge_friendly,
    stream_sweep,
)


def test_enumerate_orders_lexicographic():
    assert list(enumerate_orders(3)) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    assert list(enumerate_orders(0)) == [()]


# ideals with 0, 1 and 2 generators, which the sweep decides before any position
FEW_GENERATORS = ("vars: x y\ngens:\n", "vars: x y\ngens: x*y\n", "vars: x y z\ngens: x*y y*z\n")


def _works(ideal):
    """The search payloads of ``ideal``: with no target, and with its Betti totals."""
    tc = build_taylor(ideal)
    return _payload(tc, None), _payload(tc, tuple(betti_numbers(tc).totals))


def _stream_hits(work):
    """Every order the sweep accepts, order by order through ``stream_sweep``,
    as ``(index, order, ranks)``: the friendly orders without a target, the
    witnesses with one."""
    hits = []
    for index, perm in enumerate(enumerate_orders(work[0])):
        swept = stream_sweep(perm, work, work[4] is None)
        if swept is not None:
            hits.append((index, perm, swept))
    return hits


def _scanned(hits, work):
    """What ``_scan`` gives for a range whose accepted orders are ``hits``:
    all of them without a target, the first witness alone with one."""
    return hits if work[4] is None else hits[:1]


def _accepted(search, start, stop):
    """Every order of ``start .. stop - 1`` that ``_scan`` accepts, each
    scanned as a range of its own."""
    return [hit for i in range(start, stop) for hit in _scan(search, i, i + 1)]


def _identity(ideal):
    return [tuple(range(ideal.n))]


def test_chunks_partition_the_stream():
    # each chunk walks the prefix tree clipped to its range, with the
    # ideal's symmetry group or without it, and gives the orders of its
    # range that the scan of the whole stream accepts
    for ideal in (cycle_edge_ideal(5), cycle_edge_ideal(6), parse_ideal(NON_SQUAREFREE[1])):
        total = math.factorial(ideal.n)
        groups = (_identity(ideal), _automorphisms(ideal))
        for work, group in itertools.product(_works(ideal), groups):
            whole = _accepted((work, group), 0, total)
            assert _scan((work, group), 0, total) == _scanned(whole, work)
            for chunk in (7, 50, 200):
                bounds = _chunk_bounds(total, chunk)
                assert bounds[0][0] == 0 and bounds[-1][1] == total
                glued = [_scan((work, group), *b) for b in bounds]
                within = [[hit for hit in whole if a <= hit[0] < b] for a, b in bounds]
                assert glued == [_scanned(hits, work) for hits in within]


def _least_in_orbit(perm, group):
    return perm == min(tuple(t[g] for g in perm) for t in group)


def test_reduced_scan_keeps_the_least_order_of_each_orbit():
    # with the group, the walk accepts exactly the accepted orders that are
    # least in their orbits, at their stream indices
    ideals = [cycle_edge_ideal(n) for n in range(3, 7)] + corpus_ideals(20)
    ideals += [parse_ideal(text) for text in NON_SQUAREFREE + (QUADRICS,)]
    for ideal in ideals:
        group = _automorphisms(ideal)
        total = math.factorial(ideal.n)
        for work in _works(ideal):
            whole = _accepted((work, _identity(ideal)), 0, total)
            least = [hit for hit in whole if _least_in_orbit(hit[1], group)]
            reduced = _accepted((work, group), 0, total)
            assert reduced == least, ideal
            assert _scan((work, group), 0, total) == _scanned(least, work), ideal
            assert least[:1] == whole[:1], ideal
            # the orbits of the reduced hits, as the friendly list expands
            # them, are every accepted order once
            orbits = sorted(tuple(t[g] for g in perm) for _, perm, _ in reduced for t in group)
            assert orbits == [perm for _, perm, _ in whole], ideal


QUADRICS = "vars: x y z\ngens: x^2 x*y x*z y^2 y*z z^2\n"
# K_{2,3} with a pendant edge on each degree-3 vertex: no order of its 8!
# is a BM witness, and its group has 12 elements
CENSUS_8 = SimpleGraph(7, ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 7), (5, 6)))
K4 = SimpleGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
SEVEN_VARIABLES = "vars: x1 x2 x3 x4 x5 x6 x7\ngens: x1 x2 x3 x4 x5 x6 x7\n"
# a perfect matching of 8 edges, listed first, and 2 edges that each join
# two of them: every order of the matching edges passes the column prefixes
# up to position 8, and only the last two generators cut the group to 192
MATCHING_PLUS_2 = SimpleGraph(
    16, tuple((i, i + 8) for i in range(1, 9)) + ((9, 10), (11, 12))
)


def _induced(ideal, t):
    """True iff a permutation of the variables takes generator ``i`` to
    generator ``t[i]`` for every ``i``.  Variable ``v`` goes to a variable
    ``u`` whose exponent column, read through ``t``, is that of ``v``."""
    gens = ideal.generators
    columns = list(zip(*(g.exponents for g in gens)))
    free = list(range(len(columns)))
    image = []
    for column in columns:
        u = next((u for u in free if tuple(columns[u][j] for j in t) == column), None)
        if u is None:
            return False
        free.remove(u)
        image.append(u)
    for i, g in enumerate(gens):
        renamed = [0] * len(columns)
        for v, e in enumerate(g.exponents):
            renamed[image[v]] = e
        if tuple(renamed) != gens[t[i]].exponents:
            return False
    return True


def test_automorphisms_of_cycles():
    # past C13 the budget is n**3 checks: C14 has 28 elements and C16 32
    for n in (*range(3, 15), 16):
        group = _automorphisms(cycle_edge_ideal(n))
        assert len(group) == len(set(group)) == 2 * n
        assert group[0] == tuple(range(n))
        members = set(group)
        assert all(tuple(a[b[g]] for g in range(n)) in members for a in group for b in group)
        assert all(_induced(cycle_edge_ideal(n), t) for t in group)


def test_automorphisms_are_every_induced_permutation():
    # brute force over all orders of the generators
    ideals = [cycle_edge_ideal(n) for n in range(3, 7)] + corpus_ideals(20)
    ideals += [edge_ideal(K4), parse_ideal(QUADRICS)] + [parse_ideal(t) for t in NON_SQUAREFREE]
    for ideal in ideals:
        group = _automorphisms(ideal)
        assert group[0] == tuple(range(ideal.n))
        assert sorted(group) == [t for t in enumerate_orders(ideal.n) if _induced(ideal, t)]


def test_automorphism_group_sizes_and_budget(monkeypatch):
    assert len(_automorphisms(edge_ideal(K4))) == 24
    assert len(_automorphisms(parse_ideal(QUADRICS))) == 6
    assert len(_automorphisms(edge_ideal(CENSUS_8))) == 12
    # S7 has 5,040 elements, and MATCHING_PLUS_2 takes 2,944 checks
    assert _automorphisms(parse_ideal(SEVEN_VARIABLES)) == [tuple(range(7))]
    assert _automorphisms(edge_ideal(MATCHING_PLUS_2)) == [tuple(range(10))]
    # the budget is at least n**3: 512 checks cover the census graph's 276
    monkeypatch.setattr(search, "AUTOMORPHISM_BUDGET", 0)
    assert len(_automorphisms(edge_ideal(CENSUS_8))) == 12
    assert _automorphisms(edge_ideal(MATCHING_PLUS_2)) == [tuple(range(10))]
    # and above 10**3, the named budget is the one spent
    monkeypatch.setattr(search, "AUTOMORPHISM_BUDGET", 2943)
    assert _automorphisms(edge_ideal(MATCHING_PLUS_2)) == [tuple(range(10))]
    monkeypatch.setattr(search, "AUTOMORPHISM_BUDGET", 2944)
    group = _automorphisms(edge_ideal(MATCHING_PLUS_2))
    assert len(group) == 192
    assert all(_induced(edge_ideal(MATCHING_PLUS_2), t) for t in group)


def _searches(ideal, workers, limit):
    """Both public searches (only the first-hit one under a limit)."""
    modes = ("first-hit",) if limit else ("first-hit", "exhaustive")
    found = [bridge_minimal_search(ideal, mode=m, workers=workers, limit=limit) for m in modes]
    if limit:
        return found
    return found, [(p, m.edges) for p, m in bridge_friendly_list(ideal, workers=workers)]


def _unreduced(monkeypatch, ideal, limit=None):
    with monkeypatch.context() as patch:
        patch.setattr(search, "_automorphisms", _identity)
        return _searches(ideal, 1, limit)


def test_reduced_searches_equal_the_unreduced(monkeypatch):
    # the chunkings are checked on _scan itself, above; the group over the
    # budget falls back to the identity, with the same results
    cases = [(cycle_edge_ideal(n), None) for n in range(7, 9)]
    cases += [(edge_ideal(g), None) for g in (CENSUS_8, K4)] + [(parse_ideal(QUADRICS), None)]
    cases += [(cycle_edge_ideal(n), 50000) for n in (9, 10)]
    cases += [(edge_ideal(MATCHING_PLUS_2), 50000)]
    for ideal, limit in cases:
        want = _unreduced(monkeypatch, ideal, limit)
        for workers in (1, 2):
            assert _searches(ideal, workers, limit) == want, (ideal, workers)


@pytest.mark.slow
def test_reduced_c9_searches_equal_the_unreduced(monkeypatch):
    # the C9 exhaustive search and the C9 friendly list
    ideal = cycle_edge_ideal(9)
    assert _searches(ideal, 2, None) == _unreduced(monkeypatch, ideal)


def test_scan_equals_the_stream_scan():
    rng = random.Random(15)
    ideals = [parse_ideal(text) for text in FEW_GENERATORS] + corpus_ideals(40)
    ideals += [cycle_edge_ideal(7), random_squarefree_ideal(3, 6, 7)]
    ideals += [parse_ideal(text) for text in NON_SQUAREFREE]
    assert {ideal.n for ideal in ideals} == set(range(8))
    for ideal in ideals:
        total = math.factorial(ideal.n)
        identity = _identity(ideal)
        for work in _works(ideal):
            stream = _stream_hits(work)
            if ideal.n <= 2:
                # decided before any position: every order, at its stream index
                assert [(i, p) for i, p, _ in stream] == list(enumerate(enumerate_orders(ideal.n)))
            assert _accepted((work, identity), 0, total) == stream, ideal
            ranges = [sorted(rng.randrange(total + 1) for _ in range(2)) for _ in range(4)]
            for start, stop in [(0, total)] + ranges:
                within = [hit for hit in stream if start <= hit[0] < stop]
                assert _scan((work, identity), start, stop) == _scanned(within, work), ideal


def test_sweep_records_equal_the_stream_sweep():
    rng = random.Random(16)
    for ideal in corpus_ideals(40) + [cycle_edge_ideal(n) for n in (7, 8)]:
        tc = build_taylor(ideal)
        family = critical_family(tc, lyubeznik_matching(tc))
        works = _works(ideal) + (_payload(tc, None, family),)
        for _ in range(20):
            perm = tuple(rng.sample(range(ideal.n), ideal.n))
            for work in works:
                for friendly_only in (False, True):
                    got, want = [], []
                    swept = _sweep(perm, work, friendly_only, got)
                    assert swept == stream_sweep(perm, work, friendly_only, want)
                    if work[4] is None or swept is not None:
                        assert got == want, (ideal, perm)
                    else:
                        # the level-count bound may reject the order sooner
                        assert got == want[: len(got)], (ideal, perm)


def test_triangle_friendly_catalog(tri):
    pairs = bridge_friendly_list(tri)
    assert [perm for perm, _ in pairs] == list(enumerate_orders(3))
    for perm, matching in pairs:
        reordered = tri.reordered(perm)
        assert matching.edges == bm_matching(build_taylor(reordered)).edges
        assert is_bridge_friendly(build_taylor(reordered))
        assert len(matching) == 1
        # the single edge pairs the full cell with the two larger generators
        assert matching.edges[0] == (0b111, 0b110)


def test_run4_has_no_friendly_order(run4):
    assert bridge_friendly_list(run4) == []


def test_search_guard():
    path11 = edge_ideal(SimpleGraph(12, tuple((i, i + 1) for i in range(1, 12))))
    assert path11.n == 11
    with pytest.raises(ValueError, match="guard"):
        bridge_friendly_list(path11)
    with pytest.raises(ValueError, match="guard"):
        bridge_minimal_search(path11)


def test_minimal_search_triangle(tri):
    result = bridge_minimal_search(tri)
    assert result.order == (0, 1, 2)
    assert result.ranks == (1, 3, 2, 0)
    assert result.orders_tried == 1


def test_minimal_search_run4(run4):
    result = bridge_minimal_search(run4)
    assert result.order == (0, 1, 2, 3)
    assert result.ranks == (1, 4, 4, 1, 0)


def test_minimal_search_modes_agree(run4, tri):
    for ideal in (run4, tri):
        first = bridge_minimal_search(ideal, mode="first-hit")
        full = bridge_minimal_search(ideal, mode="exhaustive")
        assert first.order == full.order
        assert first.ranks == full.ranks
        assert full.orders_tried == math.factorial(ideal.n)


def test_minimal_search_limit(run4):
    capped = bridge_minimal_search(cycle_edge_ideal(5), limit=0)
    assert capped.order is None and capped.orders_tried == 0
    assert capped.orders_total == math.factorial(5)


@pytest.mark.parametrize("limit", [-1, -5, 2.0, "3", True])
def test_minimal_search_rejects_bad_limit(tri, limit):
    with pytest.raises(ValueError, match="limit"):
        bridge_minimal_search(tri, limit=limit)


def test_minimal_search_rejects_an_unknown_mode(tri):
    with pytest.raises(ValueError, match="^unknown search mode 'bogus'$"):
        bridge_minimal_search(tri, mode="bogus")


@pytest.mark.parametrize("workers", [0, -2, 1.5, None])
def test_searches_reject_bad_workers(tri, workers):
    with pytest.raises(ValueError, match="workers"):
        bridge_minimal_search(tri, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        bridge_friendly_list(tri, workers=workers)


def test_worker_counts_do_not_change_results(tri):
    # C4 and C5 make one chunk each, which runs in this process; C6 (3
    # chunks) and C7 (20 chunks with two workers) run on a pool
    c4 = cycle_edge_ideal(4)
    c7 = cycle_edge_ideal(7)
    for ideal in (cycle_edge_ideal(5), cycle_edge_ideal(6)):
        base_list = bridge_friendly_list(ideal, workers=1)
        for workers in (2, 8):
            same_list = bridge_friendly_list(ideal, workers=workers)
            assert [(p, m.edges) for p, m in same_list] == [
                (p, m.edges) for p, m in base_list
            ]
    base_search = bridge_minimal_search(c4, workers=1)
    for workers in (2, 8):
        same_search = bridge_minimal_search(c4, workers=workers)
        assert (same_search.order, same_search.ranks) == (
            base_search.order,
            base_search.ranks,
        )
    for mode in ("first-hit", "exhaustive"):
        base_search = bridge_minimal_search(c7, mode=mode, workers=1)
        for workers in (2, 8):
            assert bridge_minimal_search(c7, mode=mode, workers=workers) == base_search


@pytest.fixture
def pools(monkeypatch):
    """Process counts of the pools started during the test."""
    sizes = []
    pool = multiprocessing.Pool

    def spy(processes, *args, **kwargs):
        sizes.append(processes)
        return pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    return sizes


def test_no_pool_larger_than_the_work(pools, tri):
    # the 120 orders of C5 and the 6 of the triangle make one chunk each,
    # which runs in this process
    assert bridge_minimal_search(cycle_edge_ideal(5), workers=2).orders_tried == 1
    assert len(bridge_friendly_list(tri, workers=4)) == 6
    assert pools == []
    got = list(_run_chunks(_failing_chunk, None, BOUNDS[:3], 8, False, False))
    assert got == [((0, 1), 0), ((1, 2), 1), ((2, 3), 2)]
    assert pools == [3]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["first-hit", "exhaustive"])
def test_search_limits_across_chunks(mode, workers):
    # the least witness of this ideal is order 736, in the third chunk with
    # one worker and with two; the limits cut the stream before it, right
    # after it and past it
    ideal = random_squarefree_ideal(206, 6, 7)
    tc = build_taylor(ideal)
    work = _payload(tc, tuple(betti_numbers(tc).totals))
    total = math.factorial(7)
    swept = [(i, p, _sweep(p, work)) for i, p in enumerate(enumerate_orders(7))]
    witnesses = [hit for hit in swept if hit[2] is not None]
    assert witnesses[0][:2] == (736, (1, 0, 2, 5, 6, 3, 4))
    for limit in (None, 736, 737, 1000):
        cap = total if limit is None else limit
        result = bridge_minimal_search(ideal, mode=mode, workers=workers, limit=limit)
        below = [hit for hit in witnesses if hit[0] < cap]
        if below:
            index, perm, ranks = below[0]
            tried = index + 1 if mode == "first-hit" else cap
        else:
            perm, ranks, tried = None, None, cap
        assert result == search.MinimalSearchResult(perm, ranks, tried, total, mode), limit


def _run_first_inside(monkeypatch, inner):
    """Make the first chunk scanned from now on run ``inner()`` to the end
    before it scans; returns the list that receives what ``inner`` gave."""
    scan, got = search._scan, []

    def scan_after_inner(*args):
        if not got:
            got.append(None)  # first: the chunks of inner() scan plainly
            got[0] = inner()
        return scan(*args)

    monkeypatch.setattr(search, "_scan", scan_after_inner)
    return got


def test_a_search_inside_a_chunk_keeps_each_payload(monkeypatch):
    # no threads: the second search runs to its end inside the first
    # search's first chunk, and each must give its own answer
    c7 = cycle_edge_ideal(7)
    alone = bridge_minimal_search(c7, mode="exhaustive")
    got = _run_first_inside(monkeypatch, lambda: bridge_minimal_search(c7, mode="exhaustive"))
    result = bridge_minimal_search(random_squarefree_ideal(206, 6, 7))
    assert result.order == (1, 0, 2, 5, 6, 3, 4)
    assert result.ranks == (1, 7, 12, 8, 2, 0, 0, 0)
    assert result.orders_tried == 737
    assert got == [alone]


def test_a_search_inside_a_friendly_list_keeps_each_payload(monkeypatch):
    c6 = cycle_edge_ideal(6)
    other = random_squarefree_ideal(3, 6, 6)
    alone = bridge_minimal_search(other)
    expected = [(p, m.edges) for p, m in bridge_friendly_list(c6)]
    assert len(expected) == 240
    got = _run_first_inside(monkeypatch, lambda: bridge_minimal_search(other))
    assert [(p, m.edges) for p, m in bridge_friendly_list(c6)] == expected
    assert got == [alone]


@pytest.fixture
def killed(monkeypatch):
    """Pids of the processes terminated during the test.

    A worker killed while it writes a result leaves the result queue locked,
    and the pool's shutdown then hangs.
    """
    pids = []
    terminate = multiprocessing.process.BaseProcess.terminate

    def spy(process):
        pids.append(process.pid)
        terminate(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", spy)
    return pids


def test_pool_search_stops_without_killing_workers(killed):
    result = bridge_minimal_search(cycle_edge_ideal(7), workers=2)
    # the witness ends the first of 20 chunks
    assert result.orders_tried == 1 and result.order is not None
    assert killed == []


def _failing_chunk(work, start, stop):
    if start == 3:
        raise RuntimeError("chunk 3 fails on purpose")
    return start


_FAILING_LINE = _failing_chunk.__code__.co_firstlineno + 2


def _sigint_handler(work, start, stop):
    return signal.getsignal(signal.SIGINT)


def _within(seconds, run):
    """What ``run()`` returns or raises, failing the test if it takes longer."""
    outcome = []

    def target():
        try:
            outcome.append(("value", run()))
        except Exception as exc:
            outcome.append(("error", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome[0]


BOUNDS = [(i, i + 1) for i in range(40)]


def test_pool_worker_error_reaches_the_caller(killed):
    chunks = _run_chunks(_failing_chunk, None, BOUNDS, 2, False, False)
    kind, got = _within(60, lambda: list(chunks))
    assert kind == "error" and isinstance(got, SearchWorkerError)
    assert isinstance(got.__cause__, RuntimeError)
    assert str(got.__cause__) == "chunk 3 fails on purpose"
    assert str(got) == (
        "a search worker failed: RuntimeError: chunk 3 fails on purpose "
        f"(at test_search.py:{_FAILING_LINE} in _failing_chunk)"
    )
    assert killed == []


def _failing_scan(search, start, stop):
    raise ZeroDivisionError("chunk fails on purpose")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_reports_a_worker_failure_on_one_line(capsys, monkeypatch, killed, workers):
    # the 5040 orders of C7 make 20 chunks with two workers, which run on a pool
    monkeypatch.setattr(search, "_scan", _failing_scan)
    argv = ["minimal-search", "--cycle", "7", "--workers", workers]
    assert _within(60, lambda: main(argv)) == ("value", 1)
    captured = capsys.readouterr()
    line = _failing_scan.__code__.co_firstlineno + 1
    assert captured.out == ""
    assert captured.err == (
        "error: a search worker failed: ZeroDivisionError: chunk fails on purpose "
        f"(at test_search.py:{line} in _failing_scan)\n"
    )
    assert killed == []


def test_pool_closed_generator_lets_workers_finish(killed):
    def take_two():
        chunks = _run_chunks(_failing_chunk, None, BOUNDS, 2, False, False)
        first = [next(chunks), next(chunks)]
        chunks.close()
        return first

    assert _within(60, take_two) == ("value", [((0, 1), 0), ((1, 2), 1)])
    assert killed == []


def test_pool_workers_leave_ctrl_c_to_the_parent():
    chunks = _run_chunks(_sigint_handler, None, BOUNDS[:4], 2, False, False)
    kind, got = _within(60, lambda: list(chunks))
    assert kind == "value" and {handler for _, handler in got} == {signal.SIG_IGN}


def test_friendly_hits_verified_publicly():
    c5 = cycle_edge_ideal(5)
    pairs = bridge_friendly_list(c5)
    assert len(pairs) == 90
    seen = set()
    for perm, matching in pairs:
        assert perm not in seen
        seen.add(perm)
        reordered = c5.reordered(perm)
        assert is_bridge_friendly(build_taylor(reordered))
        assert matching.edges == bm_matching(build_taylor(reordered)).edges


def test_friendly_list_relabels_the_shared_complex(run4, ex56, tri):
    # each friendly order's matching, built on the one complex of the scan
    # and relabelled, is the matching of the rebuilt reordered complex
    for ideal in (cycle_edge_ideal(5), cycle_edge_ideal(6), run4, ex56, tri):
        expected = []
        for perm in enumerate_orders(ideal.n):
            tc = build_taylor(ideal.reordered(perm))
            if is_bridge_friendly(tc):
                expected.append((perm, bm_matching(tc)))
        assert bridge_friendly_list(ideal) == expected


NON_SQUAREFREE = (
    "vars: x y z\ngens: x^2 x*y y^3 y*z^2\n",
    # 10 of its 120 orders are not witnesses
    "vars: x y z w\ngens: x*y*z y*z^2 x^2*y^2 x*y^2*w^2 z^2*w^2\n",
)


def _cross_check_ideals(tri, run4):
    ideals = [cycle_edge_ideal(n) for n in range(3, 7)] + [tri, run4]
    # corpus seeds 0-19 but 9, a 6-generator ideal whose every order is a
    # witness: it would add 720 slow public-path orders and check nothing new
    ideals += [ideal for seed, ideal in enumerate(corpus_ideals(20)) if seed != 9]
    ideals += [parse_ideal(text) for text in NON_SQUAREFREE]
    return ideals


def _bm_ranks(ideal, perm):
    """Critical cells per cardinality of the cell-by-cell reference matching
    under ``perm``, and whether that order is bridge-friendly."""
    tc = build_taylor(ideal.reordered(perm))
    touched = reference_bm_matching(tc).touched
    ranks = [0] * (ideal.n + 1)
    for cell in range(1 << ideal.n):
        if cell not in touched:
            ranks[cell.bit_count()] += 1
    return tuple(ranks), reference_is_bridge_friendly(tc)


def _least_witness(orders, ranks_of, totals):
    return next(((i, p, ranks_of(p)) for i, p in enumerate(orders) if ranks_of(p) == totals), None)


def _assert_search_finds(ideal, least):
    index, perm, ranks = least
    for mode in ("first-hit", "exhaustive"):
        result = bridge_minimal_search(ideal, mode=mode)
        assert (result.order, result.ranks) == (perm, ranks), (ideal, mode)
        if index:
            # the orders before the least witness hold none
            none = bridge_minimal_search(ideal, mode=mode, limit=index)
            assert (none.order, none.ranks, none.orders_tried) == (None, None, index)


def test_sweep_agrees_with_the_public_path(tri, run4):
    # every ideal with at most 6 generators tried so far has a witness, and
    # mostly the identity order; an ideal with a non-witness order is also
    # searched with its generators listed in that order, so that the search
    # has to pass over orders without a witness first
    relisted = 0
    for ideal in _cross_check_ideals(tri, run4):
        tc = build_taylor(ideal)
        work = _payload(tc, None)
        totals = betti_numbers(tc).totals
        orders = list(enumerate_orders(ideal.n))
        public = {}
        for perm in orders:
            ranks, friendly = _bm_ranks(ideal, perm)
            assert _sweep(perm, work) == ranks, (ideal, perm)
            assert (_sweep(perm, work, friendly_only=True) is not None) == friendly
            public[perm] = ranks
        ranks_of = public.__getitem__
        _assert_search_finds(ideal, _least_witness(orders, ranks_of, totals))
        missed = [p for p in orders if ranks_of(p) != totals]
        if missed:
            # position i of the relisted ideal under p holds generator q[p[i]]
            q = missed[-1]
            least = _least_witness(orders, lambda p: ranks_of(tuple(q[x] for x in p)), totals)
            assert least[0] > 0
            _assert_search_finds(ideal.reordered(q), least)
            relisted += 1
    assert relisted >= 5
