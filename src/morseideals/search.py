"""Exhaustive searches over the n! total orders of the generators.

A permutation ``perm`` places generator ``perm[p]`` at position ``p``
(smallest first), so it describes the reordered ideal directly.  Lcm labels
and bridge sets do not depend on the order, so one precomputed bridge table
serves every permutation; only the choice of smallest bridge changes.

Every order is decided by the bitset sweep of
:func:`morseideals.matching._step`, the kernel that also builds the
Barile-Macchia and trimmed matchings, on the lexicographic prefix tree of
the orders.  Level k of the sweep starts from the targets of level k + 1
alone and reads positions 0, 1, ... of the order until its live set is
empty, which it is by the last position, since every live cell has a
bridge.  So the sweep state after a prefix depends on that prefix alone.
Hence a failure decided within a prefix (a level count that misses the
Betti total, or a duplicate target when only friendly orders are wanted)
holds for every extension; once level 3 is final, every extension has the
same ranks and is accepted; and the walk, which takes children in
ascending order, yields the accepted orders in stream order, so the orders
tried are those of an order-by-order scan.

The payload states the question, and a chunk gives its answers as
``(index, order, ranks)``.  Without a target, the sweep fails an order at
its first duplicate target, and a chunk gives every friendly order of its
range: the friendly list.  With the Betti totals as target, the sweep
fails an order whose ranks miss them, and a chunk gives its first witness
alone: the minimal search.

Both searches run on one driver, which splits the lexicographic stream into
contiguous chunks, each task the bounds ``(start, stop)`` of one; each chunk
walks the prefix tree clipped to its index range.  The sweep payload and
the symmetry group are passed to each chunk as a value, once per pool
worker, and only pool workers hold them in a global, so searches side by
side or nested never share them.  One worker or one chunk runs in this
process; otherwise the pool has at most one process per chunk.  Results
are merged in chunk order, which makes every output independent of the
worker count and of the chunk size.
Progress (orders tried / total) goes to standard error when requested.

Both searches walk only the orders that no variable symmetry of the ideal
makes lexicographically smaller.  A permutation ``t`` of the generators
that a permutation of the variables induces (:func:`_automorphisms`) maps
an order ``w`` to ``t(w) = (t[w[0]], t[w[1]], ...)``, whose reordered ideal
is that of ``w`` with its variables renamed.  Renaming keeps the lcm
lattice, hence the bridges of every cell at every position (the setting of
Batzies-Welker), so ``t(w)`` has the sweep of ``w``: the same ranks, and
it is friendly exactly when ``w`` is.  The group G of these ``t`` acts
freely on the orders (``t(w) = w`` fixes every generator), so each orbit
holds |G| orders and one least.  An order ``w`` is least in its orbit exactly when each
``w[p]`` is least in its orbit under the elements that fix ``w[:p]``
pointwise: if ``t(w) < w`` first differs at ``p``, then ``t`` fixes
``w[:p]`` and maps ``w[p]`` lower, and conversely such a ``t`` makes
``t(w) < w``.  The walk skips every child ``g`` that an element fixing its
prefix maps lower (canonical-prefix pruning, McKay, *Isomorph-free
exhaustive generation*, 1998), so the orders it reaches are exactly the
least of their orbits, and it accepts them at their stream indices.
Hence the reduction changes no result:

- the least accepted order ``W*`` of the stream is least in its orbit,
  whose orders are all accepted with it, so no prefix of ``W*`` is
  skipped; the chunks before its own accept nothing, reduced or not, and
  its own chunk accepts nothing before it.  The first hit, its index (the
  orders tried) and, as chunk bounds do not change, every progress line
  are those of the unreduced walk;
- the friendly list expands each accepted order by G and sorts the result,
  which gives every friendly order once; one matching serves an orbit,
  since in the reordered indexing its orders have the same bridge pairing.

Once :func:`_automorphisms` has made ``max(AUTOMORPHISM_BUDGET, n**3)``
candidate checks for an ideal of ``n`` generators, it stops and the identity
alone is used, which is the unreduced walk.  The budget bounds what a search
pays for a group it cannot use, such as the symmetric group of x1, ..., x7,
and grows with ``n`` so that it covers the dihedral groups of the cycles,
which take about 0.9 * n**3 checks (1,464 on C12, 2,380 on C14).
"""

from __future__ import annotations

import itertools
import math
import os
import re
import signal
import sys
from dataclasses import dataclass
from operator import itemgetter

from .algebra import MonomialIdeal
from .homology import betti_numbers
from .matching import Matching, _canonical, _payload, _root, _step, bm_matching
from .taylor import build_taylor

ORDER_SEARCH_GUARD = 10
AUTOMORPHISM_BUDGET = 2000

# set in pool workers alone: the value every chunk of the search gets (the
# payload and the group), and the event that stops them
_WORK = None
_STOP = None


class SearchWorkerError(RuntimeError):
    """A chunk worker of an order search raised, in this process or in a pool
    worker; the worker's exception is chained as ``__cause__``."""


_FRAME = re.compile(r'File "([^"]*)", line (\d+), in (\S+)')


def _worker_error(exc: Exception) -> SearchWorkerError:
    """``exc`` wrapped with the place it was raised, ``file:line in function``:
    for an exception sent back by a pool worker, read from the worker's
    traceback text, which the pool chains to it as ``__cause__``."""
    frames = _FRAME.findall(getattr(exc.__cause__, "tb", None) or "")
    if frames:
        path, line, func = frames[-1]
    else:
        import traceback  # only on this error path

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        path, line, func = frame.filename, frame.lineno, frame.name
    return SearchWorkerError(
        f"a search worker failed: {type(exc).__name__}: {exc} "
        f"(at {os.path.basename(path)}:{line} in {func})"
    )


def _check_at_least(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _chunk_bounds(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(s, min(total, s + chunk)) for s in range(0, total, chunk)]


def _init_worker(work, stop) -> None:
    global _WORK, _STOP
    _WORK, _STOP = work, stop
    # Ctrl-C reaches the parent, which stops the search; a worker killed by
    # it mid-chunk would lose that chunk's result
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_chunk(task):
    """Run one chunk in a pool worker, unless the search has stopped."""
    worker, args = task
    return None if _STOP.is_set() else worker(_WORK, *args)


def _automorphisms(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The generator permutations that a permutation of the variables
    induces, the identity first; the identity alone once the search for
    them has made ``max(AUTOMORPHISM_BUDGET, n**3)`` candidate checks.

    ``t`` maps generator ``i`` to ``t[i]``.  It is induced exactly when
    reading each variable's exponent column over the generators through
    ``t`` (entry ``i`` from generator ``t[i]``) leaves the multiset of
    columns unchanged; all-zero columns are dropped first.  ``t`` is built
    position by position.  ``t[i]`` is only tried among the generators with
    the signature of ``i``: its exponents, each paired with the sorted
    column of its variable, which a renaming keeps.  A partial ``t`` is
    dropped as soon as the sorted prefixes of its columns differ from those
    of the original ones, as sorted ints: ``step`` interns each original
    prefix by (id of its head, last entry), and any other prefix fails.
    """
    n = ideal.n
    columns = [c for c in zip(*(g.exponents for g in ideal.generators)) if any(c)]
    kinds = [sorted(c) for c in columns]
    signs = [sorted((c[i], k) for c, k in zip(columns, kinds) if c[i]) for i in range(n)]
    peers = [[j for j in range(n) if signs[j] == sign] for sign in signs]
    step: dict[tuple[int, int], int] = {}
    ids = [[0] * len(columns)]  # ids[p][k]: the id of columns[k][:p]
    for p in range(n):
        ids.append([step.setdefault((q, c[p]), len(step) + 1) for q, c in zip(ids[p], columns)])
    want = [sorted(row) for row in ids]
    rows = [tuple(c[j] for c in columns) for j in range(n)]  # generator j's entries
    group, image, free = [], [], [True] * n
    checks = max(AUTOMORPHISM_BUDGET, n**3)

    def extend(prefixes):
        # False once the budget is spent
        nonlocal checks
        p = len(image)
        if p == n:
            group.append(tuple(image))
            return True
        for j in peers[p]:
            if free[j]:
                checks -= 1
                if checks < 0:
                    return False
                longer = list(map(step.get, zip(prefixes, rows[j])))
                if None not in longer and sorted(longer) == want[p + 1]:
                    free[j] = False
                    image.append(j)
                    if not extend(longer):
                        return False
                    image.pop()
                    free[j] = True
        return True

    return group if extend(ids[0]) else [tuple(range(n))]


def _scan(search, start, stop):
    """Orders ``start .. stop - 1`` of the lexicographic stream that the sweep
    accepts, as ``(index, order, ranks)`` in stream order.  ``search`` is the
    pair ``(work, group)``, the same for every chunk of a search: the sweep
    payload, and the list of :func:`_automorphisms`, identity first, under
    which only the orders least in their orbits are accepted.  A payload
    without a target gives every friendly order of the range, one with a
    target the first witness alone.

    A depth-first walk of the prefix tree, clipped to the range, that keeps
    the sweep state of each prefix (see the module docstring): a failed
    prefix drops its subtree, a prefix that an element of the group fixing
    its own prefix maps lower is skipped, and a decided one whose prefix
    only the identity fixes yields all its orders.
    """
    work, group = search
    n, friendly_only = work[0], work[4] is None
    sizes = [math.factorial(m) for m in range(n + 1)]
    order = list(range(n))  # order[:p] is the prefix being visited
    hits = []

    def visit(state, p, rest, lo, movers):
        # ``state`` is the sweep of order[:p]; its orders start at index lo;
        # ``movers`` are the elements but the identity that fix order[:p]
        if state[0] < 3 and not movers:
            head, skip, ranks = tuple(order[:p]), max(start - lo, 0), state[4]
            tails = itertools.islice(itertools.permutations(rest), skip, stop - lo)
            for index, tail in enumerate(tails, lo + skip):
                hits.append((index, head + tail, ranks))
                if not friendly_only:
                    return True
            return False
        size = sizes[len(rest) - 1]
        for i, g in enumerate(rest):
            sub = lo + i * size
            if sub >= stop:
                break
            if sub + size > start and not (movers and any(t[g] < g for t in movers)):
                order[p] = g
                child = state if state[0] < 3 else _step(state, order, p, work, friendly_only)
                if child is not None:
                    fixing = movers and [t for t in movers if t[g] == g]
                    if visit(child, p + 1, rest[:i] + rest[i + 1 :], sub, fixing):
                        return True
        return False

    root = _root(work)
    if root is not None:
        visit(root, 0, list(range(n)), 0, group[1:])
    return hits


def _run_chunks(worker, work, tasks, workers, progress, stop_early):
    """Run ``worker(work, *task)`` for each task in order, in this process
    or on a pool of at most one process per task; yield (task, result)
    pairs, where ``task[1]`` ends the task's chunk.  With ``progress``,
    each pair is announced on standard error as ``task[1]/end orders``,
    where ``end`` ends the last chunk.

    With ``stop_early`` the iteration ends at the first chunk whose result
    is truthy; later chunks that a worker has already started are discarded
    and the others are skipped, so the reported outcome only depends on the
    lexicographic stream.  An exception raised by ``worker``, anywhere, is
    raised here as :class:`SearchWorkerError`, chained from it.
    """
    pool = None
    try:
        size = min(workers, len(tasks))
        if size <= 1:
            results = (worker(work, *task) for task in tasks)
        else:
            import multiprocessing  # here, not at the top: only the pool needs it

            stop = multiprocessing.Event()
            pool = multiprocessing.Pool(size, initializer=_init_worker, initargs=(work, stop))
            results = pool.imap(_pool_chunk, [(worker, task) for task in tasks])
        for task in tasks:
            try:
                result = next(results)
            except Exception as exc:
                raise _worker_error(exc) from exc
            if progress:
                print(f"{task[1]}/{tasks[-1][1]} orders", file=sys.stderr, flush=True)
            yield task, result
            if stop_early and result:
                return
    finally:
        if pool is not None:
            # on every exit (the end, an early stop, a worker's exception,
            # the consumer closing the generator) the workers exit on their
            # own, after the chunk they are on: terminating the pool may
            # kill one while it writes a result, which leaves the result
            # queue locked and the shutdown hung
            stop.set()
            pool.close()
            pool.join()


def _search(ideal, friendly_only, stop_early, workers, force, limit, progress):
    """``(tc, work, group, hits, cap, total)``: the complex of ``ideal``, its
    sweep payload (with the Betti totals as target unless ``friendly_only``),
    its :func:`_automorphisms`, the :func:`_scan` hits of the first
    ``cap = min(total, limit)`` of the ``total = n!`` orders under that
    group: every friendly order with ``friendly_only``, else each chunk's
    first witness."""
    _check_at_least("workers", workers, 1)
    if limit is not None:
        _check_at_least("limit", limit, 0)
    if ideal.n > ORDER_SEARCH_GUARD and not force:
        raise ValueError(
            f"searching {ideal.n}! orders exceeds the guard (n <= {ORDER_SEARCH_GUARD}); "
            f"pass force=True (CLI: --force) to run anyway"
        )
    total = math.factorial(ideal.n)
    cap = total if limit is None else min(total, limit)
    tc = build_taylor(ideal)
    work = _payload(tc, None if friendly_only else tuple(betti_numbers(tc).totals))
    group = _automorphisms(ideal)
    tasks = _chunk_bounds(cap, max(256, min(20000, cap // (workers * 16) or cap)))
    chunks = _run_chunks(_scan, (work, group), tasks, workers, progress, stop_early)
    hits = []
    for _, found in chunks:
        hits.extend(found)
    return tc, work, group, hits, cap, total


def _relabel(cell: int, position: list[int]) -> int:
    """``cell`` in the indexing of a reordered ideal, where generator ``g``
    is bit ``position[g]``; reads the members of ``cell`` alone."""
    out = 0
    while cell:
        low = cell & -cell
        out |= 1 << position[low.bit_length() - 1]
        cell ^= low
    return out


def bridge_friendly_list(
    ideal: MonomialIdeal,
    workers: int = 1,
    force: bool = False,
    progress: bool = False,
) -> list[tuple[tuple[int, ...], Matching]]:
    """All total orders under which no possible edge is discarded.

    Returns (permutation, matching) pairs in lexicographic permutation order;
    each matching is the bridge pairing of the reordered ideal, expressed in
    the reordered indexing.  The scan accepts one order per orbit of the
    ideal's symmetries, and its matching, the same for the whole orbit in
    that indexing, is built on the one complex the scan uses, from the
    scan's own payload, and then relabelled, since bridges do not depend on
    the order.
    """
    tc, work, group, hits, _, _ = _search(ideal, True, False, workers, force, None, progress)
    out = []
    position = [0] * ideal.n
    for _, perm, _ in hits:
        for p, g in enumerate(perm):
            position[g] = p
        pairs = bm_matching(tc, perm, work=work)
        matching = Matching(_canonical((_relabel(s, position), _relabel(t, position)) for s, t in pairs))
        out.extend((tuple(t[g] for g in perm), matching) for t in group)
    out.sort(key=itemgetter(0))
    return out


@dataclass(frozen=True)
class MinimalSearchResult:
    order: tuple[int, ...] | None
    ranks: tuple[int, ...] | None
    orders_tried: int
    orders_total: int
    mode: str


def bridge_minimal_search(
    ideal: MonomialIdeal,
    mode: str = "first-hit",
    workers: int = 1,
    force: bool = False,
    limit: int | None = None,
    progress: bool = False,
) -> MinimalSearchResult:
    """Look for a total order whose pairing ranks equal the Betti totals.

    ``first-hit`` stops at the lexicographically least witness; ``exhaustive``
    scans every order (still reporting the least witness, if any).  ``limit``
    caps the number of orders examined.  A ``limit`` that is negative or not
    an integer, or ``workers`` below 1, raises ValueError.
    """
    if mode not in ("first-hit", "exhaustive"):
        raise ValueError(f"unknown search mode {mode!r}")
    first_hit = mode == "first-hit"
    _, _, _, hits, cap, total = _search(ideal, False, first_hit, workers, force, limit, progress)
    if not hits:
        return MinimalSearchResult(None, None, cap, total, mode)
    index, perm, ranks = hits[0]
    return MinimalSearchResult(perm, ranks, index + 1 if first_hit else cap, total, mode)
