"""Command line front end mirroring the library operations.

Plain output is byte-stable for fixed inputs; ``--json`` switches every
subcommand to a JSON document carrying ``schema_version`` 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import MonomialIdeal, format_ideal, parse_ideal
from .families import cycle_edge_ideal, edge_ideal, parse_graph, random_squarefree_ideal
from .homology import betti_numbers, homology_ranks
from .matching import (
    Matching,
    bm_matching,
    critical_cells,
    critical_family,
    is_bridge_friendly,
    lyubeznik_matching,
    possible_edges_with_positions,
    trimmed_matching,
    validate_matching,
)
from .morse import is_minimal, morse_differential, ranks, verify_complex
from .search import SearchWorkerError, bridge_friendly_list, bridge_minimal_search
from .taylor import build_taylor, cell_members

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# rendering

def cell_text(ideal: MonomialIdeal, cell: int) -> str:
    return "{" + ", ".join(ideal.generator_strings[i] for i in cell_members(cell)) + "}"


def cell_json(ideal: MonomialIdeal, cell: int) -> list[str]:
    return [ideal.generator_strings[i] for i in cell_members(cell)]


def edge_text(ideal: MonomialIdeal, edge: tuple[int, int]) -> str:
    return f"({cell_text(ideal, edge[0])}, {cell_text(ideal, edge[1])})"


def group_text(ideal: MonomialIdeal, cells: list[int]) -> str:
    return "{" + ", ".join(cell_text(ideal, c) for c in cells) + "}"


def ranks_text(values) -> str:
    return " ".join(str(v) for v in values)


def order_text(ideal: MonomialIdeal, order) -> str:
    return ", ".join(ideal.generator_strings[i] for i in order)


def _emit(payload: dict) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, sort_keys=False))


def _matching_json(ideal, matching):
    return [
        {"source": cell_json(ideal, s), "target": cell_json(ideal, t)}
        for s, t in matching.edges
    ]


# ---------------------------------------------------------------------------
# ideal loading

def _load_ideal(args) -> MonomialIdeal:
    if getattr(args, "cycle", None) is not None:
        ideal = cycle_edge_ideal(args.cycle)
    else:
        ideal = parse_ideal(Path(args.ideal).read_text(encoding="utf-8"))
    if getattr(args, "order", None):
        ideal = ideal.reordered(_parse_order_names(ideal, args.order))
    return ideal


def _parse_order_names(ideal: MonomialIdeal, csv: str) -> tuple[int, ...]:
    names = [part.strip() for part in csv.split(",")]
    lookup = {s: i for i, s in enumerate(ideal.generator_strings)}
    if sorted(names) != sorted(lookup):
        raise ValueError(
            f"order must name every generator exactly once; "
            f"generators are: {', '.join(ideal.generator_strings)}"
        )
    return tuple(lookup[name] for name in names)


def _order2(ideal: MonomialIdeal, args) -> tuple[int, ...]:
    """The ``--order2`` of the trimming pass; the ideal order when absent."""
    if getattr(args, "order2", None):
        return _parse_order_names(ideal, args.order2)
    return tuple(range(ideal.n))


def _kind_matching(kind: str, tc, order2):
    """The matching of one kind, and the cell family that restricts it
    (``None`` except for ``trimmed``, whose family is the Lyubeznik-critical
    cells)."""
    if kind == "bm":
        return bm_matching(tc), None
    if kind == "lyubeznik":
        return lyubeznik_matching(tc), None
    if kind == "trimmed":
        return trimmed_matching(tc, order2), critical_family(tc, lyubeznik_matching(tc))
    return Matching.from_pairs(()), None


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_matching(args) -> int:
    ideal = _load_ideal(args)
    tc = build_taylor(ideal)
    if args.action == "possible-edges":
        edges = possible_edges_with_positions(tc)
        if args.json:
            _emit(
                {
                    "edges": [
                        {
                            "sbridge_position": pe.sbridge_position,
                            "sbridge": ideal.generator_strings[pe.sbridge_position],
                            "source": cell_json(ideal, pe.source),
                            "target": cell_json(ideal, pe.target),
                        }
                        for pe in edges
                    ]
                }
            )
        else:
            for pe in edges:
                print(
                    f"({pe.sbridge_position}, {cell_text(ideal, pe.source)}, "
                    f"{cell_text(ideal, pe.target)})"
                )
        return 0
    matching, family = _kind_matching(args.kind, tc, _order2(ideal, args))
    if args.action == "matching":
        if args.json:
            _emit({"edges": _matching_json(ideal, matching)})
        else:
            for edge in matching.edges:
                print(edge_text(ideal, edge))
        return 0
    # groups run from cardinality n down to 1; ranks from degree 0 up to n
    groups = critical_cells(tc, matching, family)
    if args.action == "critical":
        if args.json:
            _emit({"groups": [[cell_json(ideal, c) for c in group] for group in groups]})
        else:
            for group in groups:
                print(group_text(ideal, group))
    else:
        values = [1] + [len(group) for group in reversed(groups)]
        if args.json:
            _emit({"ranks": values})
        else:
            print(ranks_text(values))
    return 0


def _cmd_betti(args) -> int:
    ideal = _load_ideal(args)
    table = betti_numbers(build_taylor(ideal))
    rows = {}
    if args.multigraded:
        for mono, entry in sorted(table.multigraded.items(), key=lambda kv: str(kv[0])):
            row = [0] * len(table.totals)
            for degree, count in entry.items():
                row[degree] = count
            rows[str(mono)] = row
    if args.json:
        payload = {"totals": list(table.totals)}
        if args.multigraded:
            payload["multigraded"] = rows
        _emit(payload)
    else:
        print(ranks_text(table.totals))
        for mono, row in rows.items():
            print(f"{mono}: {ranks_text(row)}")
    return 0


def _cmd_friendly(args) -> int:
    ideal = _load_ideal(args)
    verdict = is_bridge_friendly(build_taylor(ideal))
    if args.json:
        _emit({"bridge_friendly": verdict})
    else:
        print("true" if verdict else "false")
    return 0


def _cmd_friendly_list(args) -> int:
    ideal = _load_ideal(args)
    pairs = bridge_friendly_list(ideal, workers=args.workers, force=args.force, progress=True)
    pairs = [(ideal.reordered(perm), matching) for perm, matching in pairs]
    if args.json:
        out = [
            {"order": list(r.generator_strings), "matching": _matching_json(r, m)} for r, m in pairs
        ]
        _emit({"pairs": out})
    else:
        if not pairs:
            print("{}")
        for reordered, matching in pairs:
            print(f"order: {', '.join(reordered.generator_strings)}")
            for edge in matching.edges:
                print(f"  {edge_text(reordered, edge)}")
    return 0


def _cmd_minimal_search(args) -> int:
    ideal = _load_ideal(args)
    result = bridge_minimal_search(
        ideal,
        mode=args.mode,
        workers=args.workers,
        force=args.force,
        limit=args.limit,
        progress=True,
    )
    if args.json:
        _emit(
            {
                "found": result.order is not None,
                "order": [ideal.generator_strings[i] for i in result.order]
                if result.order is not None
                else None,
                "ranks": list(result.ranks) if result.ranks else None,
                "orders_tried": result.orders_tried,
                "orders_total": result.orders_total,
                "mode": result.mode,
            }
        )
    else:
        if result.order is None:
            print(f"no order found (tried {result.orders_tried} of {result.orders_total})")
        else:
            print(f"found order: {order_text(ideal, result.order)}")
            print(f"ranks: {ranks_text(result.ranks)}")
    return 0


_CHECK_KINDS = ("bm", "lyubeznik", "trimmed", "empty")

# (plain-text name, result key) of the verdicts that ``check`` requires
_CHECK_FLAGS = (
    ("matching", "is_matching"),
    ("homogeneous", "is_homogeneous"),
    ("acyclic", "is_acyclic"),
    ("d2", "d_squared_zero"),
    ("homology", "homology_matches_betti"),
)


def _cmd_check(args) -> int:
    ideal = _load_ideal(args)
    tc = build_taylor(ideal)
    totals = list(betti_numbers(tc).totals)
    kinds = _CHECK_KINDS if args.kind == "all" else (args.kind,)
    order2 = _order2(ideal, args)
    results = []
    ok = True
    for kind in kinds:
        matching, family = _kind_matching(kind, tc, order2)
        report = validate_matching(tc, matching)
        complex_ = morse_differential(tc, matching, family)
        d2 = verify_complex(complex_)
        homology = homology_ranks(complex_)
        values = ranks(complex_)
        minimal = is_minimal(complex_)
        entry = {
            "kind": kind,
            "is_matching": report.is_matching,
            "is_homogeneous": report.is_homogeneous,
            "is_acyclic": report.is_acyclic,
            "d_squared_zero": d2,
            "homology_matches_betti": homology == totals,
            "minimal": minimal,
            "minimal_consistent": minimal == (values == totals),
            "ranks": values,
        }
        results.append(entry)
        ok = ok and entry["minimal_consistent"] and all(entry[key] for _, key in _CHECK_FLAGS)
    if args.json:
        _emit({"betti_totals": totals, "results": results, "ok": ok})
    else:
        print(f"betti: {ranks_text(totals)}")
        for entry in results:
            flags = " ".join(
                f"{short}={'true' if entry[key] else 'false'}" for short, key in _CHECK_FLAGS
            )
            print(
                f"{entry['kind']}: {flags} minimal="
                f"{'true' if entry['minimal'] else 'false'} ranks={ranks_text(entry['ranks'])}"
            )
        print("check: ok" if ok else "check: FAILED")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    if args.family == "cycle":
        ideal = cycle_edge_ideal(args.n)
    elif args.family == "graph":
        ideal = edge_ideal(parse_graph(Path(args.file).read_text(encoding="utf-8")))
    else:
        ideal = random_squarefree_ideal(args.seed, args.n_vars, args.n_gens)
    sys.stdout.write(format_ideal(ideal))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_source_arguments(parser, with_order2=False):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("-i", "--ideal", metavar="FILE", help="ideal file to read")
    group.add_argument("--cycle", type=int, metavar="N", help="use the n-cycle edge ideal")
    parser.add_argument(
        "--order",
        metavar="CSV",
        help="override the generator order: names smallest first, comma separated",
    )
    if with_order2:
        parser.add_argument(
            "--order2",
            metavar="CSV",
            help="second order driving the trimming pass (defaults to the ideal order)",
        )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


def _int_at_least(low: int):
    """argparse ``type=`` for integers of at least ``low``; anything else is
    a usage error (exit code 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_COMMANDS = ("bm", "lyu", "trim", "betti", "check", "friendly", "friendly-list", "minimal-search", "gen")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser of :func:`main`.

    When ``command`` names a subcommand, only that subcommand is added: that
    is all a command line starting with it needs, at a fraction of the cost
    of the whole tree.  Its usage line still lists every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="morseideals",
        description=(
            "Barile-Macchia, Lyubeznik and trimmed matchings of monomial ideals, "
            "their induced resolutions, and exhaustive order searches."
        ),
    )
    chosen = {command} if command in _COMMANDS else set(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        # what argparse lists for the whole tree; only set for one subcommand,
        # since errors on the whole tree name the argument by its metavar
        metavar="{" + ",".join(_COMMANDS) + "}" if len(chosen) == 1 else None,
    )

    for name, kind in (("bm", "bm"), ("lyu", "lyubeznik"), ("trim", "trimmed")):
        if name not in chosen:
            continue
        actions = ["matching", "critical", "ranks"]
        if name == "bm":
            actions.insert(1, "possible-edges")
        outer = sub.add_parser(name, help=f"{name} matching operations")
        inner = outer.add_subparsers(dest="action", required=True)
        for action in actions:
            leaf = inner.add_parser(action)
            _add_source_arguments(leaf, with_order2=(name == "trim"))
            leaf.set_defaults(func=_cmd_matching, kind=kind, action=action)

    if "betti" in chosen:
        betti = sub.add_parser("betti", help="Betti numbers from the exact oracle")
        _add_source_arguments(betti)
        betti.add_argument("--multigraded", action="store_true", help="include the multigraded table")
        betti.set_defaults(func=_cmd_betti)

    if "check" in chosen:
        check = sub.add_parser("check", help="validate matchings, d^2 = 0 and homology vs the oracle")
        _add_source_arguments(check, with_order2=True)
        check.add_argument("--kind", choices=("all",) + _CHECK_KINDS, default="all")
        check.set_defaults(func=_cmd_check)

    if "friendly" in chosen:
        friendly = sub.add_parser("friendly", help="bridge-friendliness for the given order")
        _add_source_arguments(friendly)
        friendly.set_defaults(func=_cmd_friendly)

    if "friendly-list" in chosen:
        flist = sub.add_parser("friendly-list", help="orders under which the ideal is bridge-friendly")
        _add_source_arguments(flist)
        flist.add_argument("--workers", type=_int_at_least(1), default=1)
        flist.add_argument("--force", action="store_true", help="ignore the n! search guard")
        flist.set_defaults(func=_cmd_friendly_list)

    if "minimal-search" in chosen:
        msearch = sub.add_parser("minimal-search", help="search orders for minimal pairing ranks")
        _add_source_arguments(msearch)
        msearch.add_argument("--mode", choices=("first-hit", "exhaustive"), default="first-hit")
        msearch.add_argument("--workers", type=_int_at_least(1), default=1)
        msearch.add_argument("--force", action="store_true", help="ignore the n! search guard")
        msearch.add_argument(
            "--limit", type=_int_at_least(0), default=None, help="cap the number of orders tried"
        )
        msearch.set_defaults(func=_cmd_minimal_search)

    if "gen" in chosen:
        gen = sub.add_parser("gen", help="emit ideal files for built-in families")
        gsub = gen.add_subparsers(dest="family", required=True)
        gcycle = gsub.add_parser("cycle")
        gcycle.add_argument("n", type=int)
        gcycle.set_defaults(func=_cmd_gen, family="cycle")
        ggraph = gsub.add_parser("graph")
        ggraph.add_argument("file")
        ggraph.set_defaults(func=_cmd_gen, family="graph")
        grandom = gsub.add_parser("random")
        grandom.add_argument("seed", type=int)
        grandom.add_argument("n_vars", type=int)
        grandom.add_argument("n_gens", type=int)
        grandom.set_defaults(func=_cmd_gen, family="random")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SearchWorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main(argv=None) -> int:
    """The process entry point: :func:`main`, with Ctrl-C reported as one
    ``error: interrupted`` line and exit code 1.  In-process callers of
    :func:`main` still see the ``KeyboardInterrupt`` itself."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(console_main())
