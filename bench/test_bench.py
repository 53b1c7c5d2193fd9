"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

They run real traced passes of the cheapest workload, so they take about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACED = ["--workload", "power_check", "--seed", "7", "--seconds", "1", "--trace", "1"]


def _run_fresh(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_counts_repeat_for_one_seed():
    first_rc, first_out = _run_fresh(TRACED)
    second_rc, second_out = _run_fresh(TRACED)
    assert first_rc == second_rc == 0
    first, second = _result(first_out), _result(second_out)
    assert first["correct"] and second["correct"]
    for name in tracing.COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    pinned = workloads.PINNED_COUNTS["power_check"]
    assert first["metrics"]["taylor.labels"]["value"] == pinned["taylor.labels"]


def test_wrong_pinned_count_trips_the_gate(monkeypatch, capsys):
    pinned = dict(workloads.PINNED_COUNTS["power_check"])
    pinned["taylor.labels"] += 1
    monkeypatch.setitem(workloads.PINNED_COUNTS, "power_check", pinned)
    assert run.main(TRACED) == 1
    captured = capsys.readouterr()
    assert _result(captured.out)["correct"] is False
    assert "taylor.labels" in captured.err


def test_count_gate_flags_a_count_that_changes_between_passes():
    counts = {name: 1 for name in tracing.COUNTS}
    assert tracing.count_problems([counts, dict(counts)], {}) == []
    problems = tracing.count_problems([counts, {**counts, "morse.entries": 2}], {})
    assert problems and "morse.entries" in problems[0]


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_calibration_samples_only_while_sampling_and_not_paused():
    cal = calibration.Calibration()
    _busy(0.25)
    assert cal.samples == []
    with cal.sampling():
        cal.paused = True
        _busy(0.25)
        assert cal.samples == []
        cal.paused = False
        _busy(0.35)
    assert len(cal.samples) >= 2
    assert cal.spent > sum(cal.samples)  # the untimed warm-up loops count too
    assert cal.factor(0) == calibration.NOMINAL_S / statistics.fmean(cal.samples)
    assert cal.factor(len(cal.samples)) == 1.0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = _run_fresh(["--workload", "cycle_check", "--seed", "0", "--seconds", "1"], tmp_path)
    assert rc != 0
    assert out == ""
