"""Set-up probe: ``python3 bench/probe.py WORKLOAD SEED WORKDIR``.

A fresh interpreter imports ``morseideals``, makes the workload's seeded
inputs under WORKDIR and prints the system-wide monotonic clock; ``run.py``
times the set-up from spawn to that reading.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (this directory is sys.path[0])

workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
