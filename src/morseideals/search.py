"""Exhaustive searches over the n! total orders of the generators.

A permutation ``perm`` places generator ``perm[p]`` at position ``p``
(smallest first), so it describes the reordered ideal directly.  Lcm labels
and bridge sets do not depend on the order, so one precomputed bridge table
serves every permutation; only the choice of smallest bridge changes.

Every order is decided by the bitset sweep of
:func:`morseideals.matching._sweep`, the kernel that also builds the
Barile-Macchia and trimmed matchings; the module docstring of
:mod:`morseideals.matching` describes it.

Work is split into contiguous chunks of the lexicographic permutation stream
and may run on several processes.  Each chunk starts at the permutation
unranked from its first index and continues in lexicographic order.  Results
are merged in chunk order, which makes every output independent of the
worker count and of the chunk size.  Progress (orders tried / total) goes to
standard error when requested.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import signal
import sys
from dataclasses import dataclass
from typing import Iterator

from .algebra import MonomialIdeal
from .homology import betti_numbers
from .matching import Matching, _payload, _sweep, bm_matching
from .taylor import build_taylor

ORDER_SEARCH_GUARD = 10

# per-process payload installed by the pool initializer, and in pool
# workers the event that tells them the search has stopped
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


def _unrank(n: int, index: int) -> tuple[int, ...]:
    """The permutation at ``index`` of the lexicographic stream, from its Lehmer code."""
    pool = list(range(n))
    out = []
    for m in range(n - 1, -1, -1):
        digit, index = divmod(index, math.factorial(m))
        out.append(pool.pop(digit))
    return tuple(out)


def _orders_from(prefix: tuple[int, ...], perm: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """``prefix + q`` for every permutation ``q`` of ``perm``'s entries that
    is lexicographically at least ``perm``, in lexicographic order."""
    if not perm:
        yield prefix
        return
    head = perm[0]
    yield from _orders_from(prefix + (head,), perm[1:])
    pool = sorted(perm)
    for first in pool:
        if first > head:
            lead = prefix + (first,)
            for rest in itertools.permutations([x for x in pool if x != first]):
                yield lead + rest


def _chunk_orders(n: int, start: int, stop: int) -> Iterator[tuple[int, ...]]:
    """Orders ``start .. stop - 1`` of the lexicographic stream."""
    return itertools.islice(_orders_from((), _unrank(n, start)), stop - start)


def _check_guard(n: int, force: bool) -> None:
    if n > ORDER_SEARCH_GUARD and not force:
        raise ValueError(
            f"searching {n}! orders exceeds the guard (n <= {ORDER_SEARCH_GUARD}); "
            f"pass force=True (CLI: --force) to run anyway"
        )


def _check_at_least(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _chunk_bounds(total: int, chunk: int) -> list[tuple[int, int]]:
    return [(s, min(total, s + chunk)) for s in range(0, total, chunk)]


def _chunk_size(total: int, workers: int) -> int:
    if total <= 1:
        return 1
    return max(256, min(20000, total // (workers * 16) or total))


def _init_worker(payload, stop=None) -> None:
    global _WORK, _STOP
    _WORK, _STOP = payload, stop
    if stop is not None:
        # a pool worker: Ctrl-C reaches the parent, which stops the search;
        # a worker killed by it mid-chunk would lose that chunk's result
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_chunk(task):
    """Run one chunk in a pool worker, unless the search has stopped."""
    worker, bounds = task
    return None if _STOP.is_set() else worker(bounds)


def _scan_friendly_chunk(bounds: tuple[int, int]) -> list[tuple[int, ...]]:
    """Permutations in the chunk whose bridge pairing loses no edge."""
    work = _WORK
    return [
        perm
        for perm in _chunk_orders(work[0], *bounds)
        if _sweep(perm, work, friendly_only=True) is not None
    ]


def _scan_minimal_chunk(bounds: tuple[int, int]):
    """First permutation in the chunk whose pairing ranks hit the target."""
    work = _WORK
    for index, perm in enumerate(_chunk_orders(work[0], *bounds), bounds[0]):
        swept = _sweep(perm, work)
        if swept is not None:
            return (index, perm, swept[0])
    return None


def _run_chunks(worker, bounds_list, workers, progress, total, stop_early):
    """Drive chunks in order; yield (bounds, result) pairs.

    With ``stop_early`` the iteration ends at the first chunk whose result is
    truthy; later chunks that a worker has already started are discarded and
    the others are skipped, so the reported outcome only depends on the
    lexicographic stream.  An exception raised by ``worker``, serially or in
    a pool worker, is raised here as :class:`SearchWorkerError`, chained
    from it.
    """
    pool = None
    try:
        if workers <= 1:
            results = map(worker, bounds_list)
        else:
            import multiprocessing  # here, not at the top: only the pool needs it

            stop = multiprocessing.Event()
            pool = multiprocessing.Pool(workers, initializer=_init_worker, initargs=(_WORK, stop))
            results = pool.imap(_pool_chunk, [(worker, bounds) for bounds in bounds_list])
        for bounds in bounds_list:
            try:
                result = next(results)
            except Exception as exc:
                raise _worker_error(exc) from exc
            if progress:
                print(f"{bounds[1]}/{total} orders", file=sys.stderr, flush=True)
            yield bounds, result
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


def _relabel(cell: int, perm: tuple[int, ...]) -> int:
    """``cell`` in the indexing of the ideal reordered by ``perm``, where
    generator ``perm[p]`` is bit ``p``."""
    return sum(1 << p for p, g in enumerate(perm) if cell >> g & 1)


def bridge_friendly_list(
    ideal: MonomialIdeal,
    workers: int = 1,
    force: bool = False,
    progress: bool = False,
) -> list[tuple[tuple[int, ...], Matching]]:
    """All total orders under which no possible edge is discarded.

    Returns (permutation, matching) pairs in lexicographic permutation order;
    each matching is the bridge pairing of the reordered ideal, expressed in
    the reordered indexing.  Every matching is built on the one complex the
    scan uses and then relabelled, since bridges do not depend on the order.
    """
    _check_at_least("workers", workers, 1)
    n = ideal.n
    _check_guard(n, force)
    total = math.factorial(n)
    tc = build_taylor(ideal)
    _init_worker(_payload(tc, None))
    bounds_list = _chunk_bounds(total, _chunk_size(total, workers))
    hits: list[tuple[int, ...]] = []
    for _, found in _run_chunks(_scan_friendly_chunk, bounds_list, workers, progress, total, False):
        hits.extend(found)
    out = []
    for perm in hits:
        pairs = bm_matching(tc, perm)
        matching = Matching.from_pairs((_relabel(s, perm), _relabel(t, perm)) for s, t in pairs)
        out.append((perm, matching))
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
    _check_at_least("workers", workers, 1)
    if limit is not None:
        _check_at_least("limit", limit, 0)
    n = ideal.n
    _check_guard(n, force)
    total = math.factorial(n)
    cap = total if limit is None else min(total, limit)
    tc = build_taylor(ideal)
    target = tuple(betti_numbers(tc).totals)
    _init_worker(_payload(tc, target))
    bounds_list = _chunk_bounds(cap, _chunk_size(cap, workers)) if cap else []
    stop_early = mode == "first-hit"
    hit = None
    scanned = 0
    for bounds, result in _run_chunks(
        _scan_minimal_chunk, bounds_list, workers, progress, cap, stop_early
    ):
        scanned = bounds[1]
        if result is not None and hit is None:
            hit = result
    if hit is None:
        return MinimalSearchResult(None, None, scanned, total, mode)
    index, perm, ranks = hit
    tried = index + 1 if mode == "first-hit" else scanned
    return MinimalSearchResult(perm, ranks, tried, total, mode)
