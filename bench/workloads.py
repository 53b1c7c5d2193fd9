"""Seeded inputs, command lists and correctness gates of the four workloads.

Each workload is a list of ``morseideals`` CLI commands (one *pass*).  The
seed only changes the inputs the package receives: a generator listing
passed with ``--order``, or ideal files written here.  Every gate checks a
fact that does not depend on the generator order, so any seed is checked.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

WORKLOADS = ("cycle_check", "power_check", "order_search", "corpus_check")

CYCLE_N = 11
CYCLE_TOTALS = [1, 11, 44, 88, 99, 66, 22, 1, 0, 0, 0, 0]
POWER_TOTALS = [1, 13, 20, 8] + [0] * 10
POWER_LEFT_OUT = ("x2*x3^3", "x3^4")
C8_RANKS = [1, 8, 20, 24, 12, 1, 0, 0, 0]
C8_ORDERS = 40320
C10_LIMIT = 50000
C10_TRIED = 41319
C10_RANKS = [1, 10, 35, 60, 55, 30, 10, 1, 0, 0, 0]
C10_WITNESS = [
    "x1*x2", "x3*x4", "x2*x3", "x5*x6", "x7*x8",
    "x6*x7", "x9*x10", "x8*x9", "x4*x5", "x1*x10",
]
C10_WORKERS = 2
CORPUS_SIZE = 400


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def search_workers() -> int:
    """Pool size of the parallel search: never more workers than CPUs."""
    return min(C10_WORKERS, nproc())


Gate = Callable[[dict, list], list]


@dataclass(frozen=True)
class Command:
    """One CLI call: ``gate(doc, earlier)`` returns the problems found in its
    JSON output ``doc``, given the documents of the earlier calls of the pass."""

    label: str
    argv: tuple[str, ...]
    gate: Gate
    pool: bool = False  # runs search workers beside this process


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_gate(totals: list[int]) -> Gate:
    def gate(doc, earlier):
        problems = []
        _expect(problems, "ok", doc.get("ok"), True)
        _expect(problems, "betti_totals", doc.get("betti_totals"), totals)
        return problems

    return gate


def _corpus_gate(doc, earlier):
    problems = []
    _expect(problems, "ok", doc.get("ok"), True)
    return problems


def _power_betti_gate(doc, earlier):
    problems = []
    _expect(problems, "totals", doc.get("totals"), POWER_TOTALS)
    rows = doc.get("multigraded", {}).values()
    _expect(problems, "multigraded column sums", [sum(c) for c in zip(*rows)], POWER_TOTALS)
    return problems


def _power_check_gate(doc, earlier):
    problems = _check_gate(POWER_TOTALS)(doc, earlier)
    _expect(problems, "check totals vs betti", doc.get("betti_totals"), earlier[0].get("totals"))
    return problems


def _friendly_gate(doc, earlier):
    problems = []
    _expect(problems, "C8 bridge-friendly pairs", len(doc.get("pairs", ())), 0)
    return problems


def _search_gate(ranks: list[int], tried: int, order: list[str] | None = None) -> Gate:
    def gate(doc, earlier):
        problems = []
        _expect(problems, "found", doc.get("found"), True)
        _expect(problems, "ranks", doc.get("ranks"), ranks)
        _expect(problems, "orders_tried", doc.get("orders_tried"), tried)
        if order is not None:
            _expect(problems, "witness order", doc.get("order"), order)
        return problems

    return gate


def _witness_gate(doc, earlier):
    problems = _check_gate(C10_RANKS)(doc, earlier)
    bm = [entry for entry in doc.get("results", ()) if entry["kind"] == "bm"]
    _expect(problems, "bm minimal", [e["minimal"] for e in bm], [True])
    _expect(problems, "bm ranks", [e["ranks"] for e in bm], [C10_RANKS])
    return problems


def _shuffled(items, seed: int) -> list:
    """Seed 0 keeps the canonical listing; any other seed shuffles it."""
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


def _cycle_check(seed: int, workdir: Path) -> list[Command]:
    from morseideals import cycle_edge_ideal

    listing = _shuffled(cycle_edge_ideal(CYCLE_N).generator_strings, seed)
    argv = ("check", "--cycle", str(CYCLE_N), "--order", ",".join(listing), "--json")
    return [Command("check_c11", argv, _check_gate(CYCLE_TOTALS))]


def _power_check(seed: int, workdir: Path) -> list[Command]:
    from morseideals import Monomial, MonomialIdeal, VariableContext, format_ideal

    context = VariableContext(("x1", "x2", "x3"))
    generators = []
    for picks in combinations_with_replacement(range(3), 4):
        monomial = Monomial(context, tuple(picks.count(v) for v in range(3)))
        if str(monomial) not in POWER_LEFT_OUT:
            generators.append(monomial)
    ideal = MonomialIdeal(context, tuple(_shuffled(generators, seed)))
    path = workdir / "power.ideal"
    path.write_text(format_ideal(ideal), encoding="utf-8")
    return [
        Command("betti", ("betti", "-i", str(path), "--multigraded", "--json"), _power_betti_gate),
        Command(
            "check_lyubeznik",
            ("check", "-i", str(path), "--kind", "lyubeznik", "--json"),
            _power_check_gate,
        ),
    ]


def _order_search(seed: int, workdir: Path) -> list[Command]:
    # the paper's Table 1 listings: fixed, not seeded
    return [
        # the witness checked as a user would, with every kind; its bm
        # complex must be a minimal resolution.  It runs first: run right
        # after the pool, its calibrated time varied by up to 17% between
        # passes, and by 4% when run first
        Command(
            "check_c10_witness",
            ("check", "--cycle", "10", "--order", ",".join(C10_WITNESS), "--json"),
            _witness_gate,
        ),
        Command(
            "c8_friendly_list",
            ("friendly-list", "--cycle", "8", "--workers", "1", "--json"),
            _friendly_gate,
        ),
        Command(
            "c8_exhaustive",
            ("minimal-search", "--cycle", "8", "--mode", "exhaustive", "--workers", "1", "--json"),
            _search_gate(C8_RANKS, C8_ORDERS),
        ),
        Command(
            "c10_first_hit",
            (
                "minimal-search", "--cycle", "10", "--limit", str(C10_LIMIT),
                "--workers", str(search_workers()), "--json",
            ),
            _search_gate(C10_RANKS, C10_TRIED, C10_WITNESS),
            pool=search_workers() > 1,
        ),
    ]


def _corpus_check(seed: int, workdir: Path) -> list[Command]:
    from morseideals import format_ideal, random_squarefree_ideal

    commands = []
    for k in range(CORPUS_SIZE):
        s = seed * CORPUS_SIZE + k
        path = workdir / f"corpus{k}.ideal"
        path.write_text(format_ideal(random_squarefree_ideal(s, 4 + s % 5, 3 + s % 5)), encoding="utf-8")
        commands.append(Command(f"check_{s}", ("check", "-i", str(path), "--json"), _corpus_gate))
    return commands


_BUILDERS = {
    "cycle_check": _cycle_check,
    "power_check": _power_check,
    "order_search": _order_search,
    "corpus_check": _corpus_check,
}


def prepare(name: str, seed: int, workdir: Path) -> list[Command]:
    """Import the package, make the seeded inputs under ``workdir`` and
    return the command list of one pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, workdir)


def gate_problems(command: Command, rc: int, stdout: str, earlier: list) -> tuple[dict, list]:
    """Parse one call's output and apply its gate; a wrong exit code or
    unparsable output is a problem too."""
    problems = [] if rc == 0 else [f"exit code {rc}, want 0"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return {}, problems + ["stdout is not one JSON document"]
    return doc, problems + command.gate(doc, earlier)


# Counts that no seed changes, checked on every traced run.  The others
# (order-dependent critical cells, entries, dense cells, and the orders
# covered, which follow the pool size) are checked for repetition only.
_PER_CHECK = {"matching.validate_matching.calls": 11, "matching.lyubeznik_matching.calls": 3}
PINNED_COUNTS: dict[str, dict[str, int]] = {
    "cycle_check": {
        **_PER_CHECK,
        "taylor.cells": 2048,
        "taylor.labels": 486,
        "homology.blocks": 486,
        "homology.max_block_cells": 199,
    },
    "power_check": {
        "matching.validate_matching.calls": 3,
        "matching.lyubeznik_matching.calls": 1,
        "taylor.cells": 2 * 8192,
        "taylor.labels": 2 * 77,
        "homology.blocks": 2 * 77,
        "homology.max_block_cells": 1024,
    },
    # fixed inputs: every count is pinned except the orders covered;
    # C8 has 90 distinct lcm labels and C10 has 277
    "order_search": {
        **_PER_CHECK,
        "matching.edges": 1494,
        "taylor.cells": 2 * 2**8 + 2 * 2**10,
        "taylor.labels": 2 * 90 + 2 * 277,
        "morse.critical_cells": 1780,
        "morse.entries": 8020,
        "homology.blocks": 90 + 2 * 277,
        "homology.max_block_cells": 123,
        "homology.homology_ranks.dense_cells": 206545,
        "search.orders_tried": 2 * C8_ORDERS + C10_TRIED,
    },
    "corpus_check": {name: CORPUS_SIZE * count for name, count in _PER_CHECK.items()},
}
