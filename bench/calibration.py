"""Calibration of the benchmark's times against the speed of the host.

On a small shared host the same code runs up to 40% slower for phases of
20 s to minutes, and its speed also flips between fast and slow states
within seconds (see README.md, "Noise").  So, while a measured command
runs, a timer signal interrupts it every ``INTERVAL`` seconds to time a
short, fixed pure-Python reference loop that calls nothing in
``morseideals``; the loop's time is taken off the command's.  The loop
runs twice and only the second, warm run is timed, so that how the package
uses the caches does not leak into the samples.  Times are then scaled by
``NOMINAL_S / mean(reference times)``: a time is reported in seconds at
the speed the host had when the reference took ``NOMINAL_S``.  The mean,
because a command takes the time-weighted mix of the fast and slow states,
and so does the mean of evenly spaced samples.  A change to the package
moves only the commands, not the reference, so it moves the calibrated
times as much as the raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

# a mean reference time on a 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids
# family, Python 3.11.7); it fixes the scale of every calibrated time
NOMINAL_S = 0.0044
# seconds between reference samples while a command runs
INTERVAL = 0.1
_CHECKSUM = 4116522147709938


def _hot_loop() -> int:
    """Integer arithmetic, small dicts and sets, strings and sorting."""
    total = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i % 61, i % 17)
        table[key] = table.get(key, 0) + i
        total += (i * 2654435761) % 1000003
    seen = {k for k, v in table.items() if v % 3}
    words = sorted(f"{a}:{b}:{table[a, b]}" for a, b in seen)
    return total + len(words)


def _memory_loop() -> int:
    """Allocation: a dict and a list of many small tuples, then a sort."""
    state, keys = 12345, []
    for i in range(1500):
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        keys.append((state >> 40, i & 1023))
    index = {key: i for i, key in enumerate(keys)}
    total = sum(index[key] for key in keys[::3])
    keys.sort()
    return total + keys[0][0]


def _bareiss_loop() -> int:
    """Fraction-free elimination on a fixed integer matrix, the arithmetic
    of an exact rank."""
    state, matrix = 7, []
    for _ in range(22):
        row = []
        for _ in range(22):
            state = (state * 1103515245 + 12345) % (1 << 31)
            row.append(state % 7 - 3)
        matrix.append(row)
    n, prev = len(matrix), 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if matrix[i][k]), None)
        if pivot is None:
            continue
        matrix[k], matrix[pivot] = matrix[pivot], matrix[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                matrix[i][j] = (matrix[i][j] * matrix[k][k] - matrix[i][k] * matrix[k][j]) // prev
        prev = matrix[k][k]
    return prev


def reference_loop() -> int:
    """Fixed interpreter work of three kinds the package does.  A mix,
    because each kind alone follows the host's speed in its own way."""
    return _hot_loop() + _memory_loop() + _bareiss_loop()


class Calibration:
    """Reference samples of one run."""

    def __init__(self) -> None:
        if reference_loop() != _CHECKSUM:  # also warms the loop up
            raise RuntimeError("reference loop gave a wrong result")
        self.samples: list[float] = []
        self.spent = 0.0  # seconds all samples took, to be taken off
        self.paused = False

    def _sample(self, signum, frame) -> None:
        if self.paused:
            return
        # a collection of the package's garbage must not run inside a sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            warm = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - warm)
        self.spent += end - start

    @contextmanager
    def sampling(self, on: bool = True):
        """Time the reference every ``INTERVAL`` seconds inside the block,
        except while ``paused`` is set."""
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.paused = False

    def factor(self, first: int, last: int | None = None) -> float:
        """Multiply a raw time by this to get a calibrated one, from the
        samples ``first`` to ``last`` (exclusive); 1 if there are none."""
        samples = self.samples[first:last]
        return NOMINAL_S / statistics.fmean(samples) if samples else 1.0
