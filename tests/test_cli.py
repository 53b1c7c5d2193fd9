import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morseideals import (
    bm_matching,
    build_taylor,
    cli,
    critical_cells,
    cycle_edge_ideal,
    lyubeznik_matching,
    parse_ideal,
    trimmed_matching,
)
from morseideals.cli import build_parser, main
from conftest import cell_of, trimmed_union

FIXTURES = Path(__file__).parent / "fixtures"
RUN4 = str(FIXTURES / "run4.ideal")
TRI = str(FIXTURES / "tri.ideal")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_search_progress_goes_to_stderr(capsys):
    code = main(["friendly-list", "-i", TRI])
    captured = capsys.readouterr()
    assert code == 0
    assert "6/6 orders" in captured.err
    assert "orders" not in captured.out
    # one line per chunk: its end, against the orders searched
    c7 = "".join(f"{stop}/5040 orders\n" for stop in range(315, 5041, 315))
    assert c7.count("\n") == 16
    for argv, err in (
        (["minimal-search", "--cycle", "7", "--mode", "exhaustive"], c7),
        (["minimal-search", "--cycle", "7"], "315/5040 orders\n"),
        (["friendly-list", "--cycle", "6"], "256/720 orders\n512/720 orders\n720/720 orders\n"),
    ):
        assert main(argv + ["--workers", "1"]) == 0
        assert capsys.readouterr().err == err, argv


def test_importing_the_cli_loads_no_pool_or_traceback():
    # the search imports both on the paths that use them, so no command
    # pays for them at start-up
    src = str(Path(cli.__file__).parents[1])
    code = "import sys, morseideals.cli; print({'multiprocessing', 'traceback'} & {*sys.modules})"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "set()\n"), proc.stderr


GOLDEN_PLAIN = {
    ("bm", "matching"): (
        "({y*z, x*y, w*x, w*z}, {x*y, w*x, w*z})\n"
        "({y*z, x*y, w*x}, {y*z, w*x})\n"
        "({y*z, x*y, w*z}, {x*y, w*z})\n"
    ),
    ("bm", "possible-edges"): (
        "(0, {y*z, x*y, w*x, w*z}, {x*y, w*x, w*z})\n"
        "(1, {y*z, x*y, w*x}, {y*z, w*x})\n"
        "(0, {y*z, x*y, w*z}, {x*y, w*z})\n"
        "(3, {y*z, w*x, w*z}, {y*z, w*x})\n"
    ),
    ("bm", "critical"): (
        "{}\n"
        "{{y*z, w*x, w*z}}\n"
        "{{y*z, x*y}, {x*y, w*x}, {y*z, w*z}, {w*x, w*z}}\n"
        "{{y*z}, {x*y}, {w*x}, {w*z}}\n"
    ),
    ("bm", "ranks"): "1 4 4 1 0\n",
    ("lyu", "matching"): (
        "({y*z, x*y, w*x, w*z}, {x*y, w*x, w*z})\n"
        "({y*z, x*y, w*z}, {x*y, w*z})\n"
    ),
    ("lyu", "critical"): (
        "{}\n"
        "{{y*z, x*y, w*x}, {y*z, w*x, w*z}}\n"
        "{{y*z, x*y}, {y*z, w*x}, {x*y, w*x}, {y*z, w*z}, {w*x, w*z}}\n"
        "{{y*z}, {x*y}, {w*x}, {w*z}}\n"
    ),
    ("lyu", "ranks"): "1 4 5 2 0\n",
    ("trim", "matching"): "({y*z, x*y, w*x}, {y*z, w*x})\n",
    ("trim", "critical"): (
        "{}\n"
        "{{y*z, w*x, w*z}}\n"
        "{{y*z, x*y}, {x*y, w*x}, {y*z, w*z}, {w*x, w*z}}\n"
        "{{y*z}, {x*y}, {w*x}, {w*z}}\n"
    ),
    ("trim", "ranks"): "1 4 4 1 0\n",
}


@pytest.mark.parametrize("command,action", sorted(GOLDEN_PLAIN))
def test_golden_plain_outputs(capsys, command, action):
    code, out = run_cli(capsys, command, action, "-i", RUN4)
    assert code == 0
    assert out == GOLDEN_PLAIN[(command, action)]


def test_trim_accepts_explicit_order2(capsys):
    code, out = run_cli(
        capsys, "trim", "ranks", "-i", RUN4, "--order2", "y*z,x*y,w*x,w*z"
    )
    assert code == 0 and out == "1 4 4 1 0\n"
    # a different second order may change the trimming but stays a resolution
    code, out = run_cli(
        capsys, "trim", "ranks", "-i", RUN4, "--order2", "w*z,w*x,x*y,y*z"
    )
    assert code == 0


SOURCES = [("--cycle", str(n)) for n in range(3, 8)] + [
    ("-i", str(FIXTURES / name)) for name in ("run4.ideal", "ex56.ideal", "tri.ideal")
]


def _json_cli(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, argv
    return json.loads(out)


def _source_id(source):
    return f"C{source[1]}" if source[0] == "--cycle" else Path(source[1]).stem


@pytest.mark.parametrize("source", SOURCES, ids=_source_id)
def test_matching_commands_agree_with_check(capsys, source):
    """bm/lyu/trim print the library's matching and critical cells of their
    kind, and ``ranks`` equals both the critical-cell counts and the ranks of
    the Morse complex that ``check`` builds for the same kind."""
    if source[0] == "--cycle":
        ideal = cycle_edge_ideal(int(source[1]))
    else:
        ideal = parse_ideal(Path(source[1]).read_text())
    tc = build_taylor(ideal)
    index = {name: i for i, name in enumerate(ideal.generator_strings)}

    def cell(names):
        return cell_of(index[name] for name in names)

    bm, lyu = bm_matching(tc), lyubeznik_matching(tc)
    forward, backward = range(ideal.n), tuple(reversed(range(ideal.n)))
    reverse = ("--order2", ",".join(reversed(ideal.generator_strings)))
    # the trimmed kind prints its matching, and its critical cells are those
    # of the union with the Lyubeznik matching
    for command, kind, extra, matching, whole in (
        ("bm", "bm", (), bm, bm),
        ("lyu", "lyubeznik", (), lyu, lyu),
        ("trim", "trimmed", (), trimmed_matching(tc, forward), trimmed_union(tc, forward)),
        ("trim", "trimmed", reverse, trimmed_matching(tc, backward), trimmed_union(tc, backward)),
    ):
        where = (command, extra)
        edges = _json_cli(capsys, command, "matching", *source, *extra, "--json")["edges"]
        edges = [(cell(edge["source"]), cell(edge["target"])) for edge in edges]
        assert edges == list(matching.edges), where
        groups = _json_cli(capsys, command, "critical", *source, *extra, "--json")["groups"]
        groups = [[cell(names) for names in group] for group in groups]
        assert groups == critical_cells(tc, whole), where
        checked = _json_cli(capsys, "check", *source, "--kind", kind, *extra, "--json")
        want = checked["results"][0]["ranks"]
        printed = _json_cli(capsys, command, "ranks", *source, *extra, "--json")["ranks"]
        assert printed == want, where
        assert [1] + [len(group) for group in reversed(groups)] == want, where


def test_benchmark_shims_name_package_attributes():
    """Every ``(module, attr)`` that the benchmark's tracer wraps exists."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SHIMMED
    for module_name, attr in tracing.SHIMMED:
        module = importlib.import_module(f"morseideals.{module_name}")
        assert hasattr(module, attr), (module_name, attr)


def test_friendly_golden(capsys):
    code, out = run_cli(capsys, "friendly", "-i", RUN4)
    assert code == 0 and out == "false\n"
    code, out = run_cli(capsys, "friendly", "-i", TRI)
    assert code == 0 and out == "true\n"


def test_friendly_json_goldens(capsys):
    code, out = run_cli(capsys, "friendly", "-i", RUN4, "--json")
    assert code == 0 and out == '{"schema_version": 1, "bridge_friendly": false}\n'
    code, out = run_cli(capsys, "friendly", "-i", TRI, "--json")
    assert code == 0 and out == '{"schema_version": 1, "bridge_friendly": true}\n'


def test_friendly_list_json_goldens(capsys):
    code, out = run_cli(capsys, "friendly-list", "-i", RUN4, "--json")
    assert code == 0 and out == '{"schema_version": 1, "pairs": []}\n'
    code, out = run_cli(capsys, "friendly-list", "-i", TRI, "--json")
    assert code == 0
    assert out == (
        '{"schema_version": 1, "pairs": ['
        '{"order": ["x*y", "y*z", "x*z"], "matching": '
        '[{"source": ["x*y", "y*z", "x*z"], "target": ["y*z", "x*z"]}]}, '
        '{"order": ["x*y", "x*z", "y*z"], "matching": '
        '[{"source": ["x*y", "x*z", "y*z"], "target": ["x*z", "y*z"]}]}, '
        '{"order": ["y*z", "x*y", "x*z"], "matching": '
        '[{"source": ["y*z", "x*y", "x*z"], "target": ["x*y", "x*z"]}]}, '
        '{"order": ["y*z", "x*z", "x*y"], "matching": '
        '[{"source": ["y*z", "x*z", "x*y"], "target": ["x*z", "x*y"]}]}, '
        '{"order": ["x*z", "x*y", "y*z"], "matching": '
        '[{"source": ["x*z", "x*y", "y*z"], "target": ["x*y", "y*z"]}]}, '
        '{"order": ["x*z", "y*z", "x*y"], "matching": '
        '[{"source": ["x*z", "y*z", "x*y"], "target": ["y*z", "x*y"]}]}]}\n'
    )


def test_friendly_list_goldens(capsys):
    code, out = run_cli(capsys, "friendly-list", "-i", RUN4)
    assert code == 0 and out == "{}\n"
    code, out = run_cli(capsys, "friendly-list", "-i", TRI)
    assert code == 0
    assert out == (
        "order: x*y, y*z, x*z\n"
        "  ({x*y, y*z, x*z}, {y*z, x*z})\n"
        "order: x*y, x*z, y*z\n"
        "  ({x*y, x*z, y*z}, {x*z, y*z})\n"
        "order: y*z, x*y, x*z\n"
        "  ({y*z, x*y, x*z}, {x*y, x*z})\n"
        "order: y*z, x*z, x*y\n"
        "  ({y*z, x*z, x*y}, {x*z, x*y})\n"
        "order: x*z, x*y, y*z\n"
        "  ({x*z, x*y, y*z}, {x*y, y*z})\n"
        "order: x*z, y*z, x*y\n"
        "  ({x*z, y*z, x*y}, {y*z, x*y})\n"
    )


def test_minimal_search_plain(capsys):
    code, out = run_cli(capsys, "minimal-search", "-i", RUN4)
    assert code == 0
    assert out == "found order: y*z, x*y, w*x, w*z\nranks: 1 4 4 1 0\n"


def test_minimal_search_json(capsys):
    # the benchmark's gates read the order, ranks and orders_tried keys
    code, out = run_cli(capsys, "minimal-search", "-i", RUN4, "--json")
    assert code == 0
    assert out == (
        '{"schema_version": 1, "found": true, "order": ["y*z", "x*y", "w*x", "w*z"], '
        '"ranks": [1, 4, 4, 1, 0], "orders_tried": 1, "orders_total": 24, "mode": "first-hit"}\n'
    )
    code, out = run_cli(capsys, "minimal-search", "--cycle", "7", "--workers", "1", "--json")
    assert code == 0
    assert out == (
        '{"schema_version": 1, "found": true, "order": '
        '["x1*x2", "x2*x3", "x3*x4", "x4*x5", "x5*x6", "x6*x7", "x1*x7"], '
        '"ranks": [1, 7, 14, 14, 7, 1, 0, 0], "orders_tried": 1, "orders_total": 5040, '
        '"mode": "first-hit"}\n'
    )
    code, out = run_cli(capsys, "minimal-search", "--cycle", "5", "--mode", "exhaustive", "--json")
    assert code == 0
    assert out == (
        '{"schema_version": 1, "found": true, '
        '"order": ["x1*x2", "x2*x3", "x3*x4", "x4*x5", "x1*x5"], "ranks": [1, 5, 5, 1, 0, 0], '
        '"orders_tried": 120, "orders_total": 120, "mode": "exhaustive"}\n'
    )
    code, out = run_cli(capsys, "minimal-search", "-i", RUN4, "--limit", "0", "--json")
    assert code == 0
    assert out == (
        '{"schema_version": 1, "found": false, "order": null, "ranks": null, '
        '"orders_tried": 0, "orders_total": 24, "mode": "first-hit"}\n'
    )


def test_betti_multigraded_plain(capsys):
    code, out = run_cli(capsys, "betti", "-i", TRI, "--multigraded")
    assert code == 0
    assert out == "1 3 2 0\n1: 1 0 0 0\nx*y: 0 1 0 0\nx*y*z: 0 0 2 0\nx*z: 0 1 0 0\ny*z: 0 1 0 0\n"


def test_betti_outputs(capsys):
    code, out = run_cli(capsys, "betti", "-i", RUN4)
    assert code == 0 and out == "1 4 4 1 0\n"
    code, out = run_cli(capsys, "betti", "--cycle", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["totals"] == [1, 9, 27, 39, 27, 9, 2, 0, 0, 0]


def test_betti_multigraded_marginalizes(capsys):
    code, out = run_cli(capsys, "betti", "-i", RUN4, "--json", "--multigraded")
    assert code == 0
    payload = json.loads(out)
    summed = [0] * len(payload["totals"])
    for row in payload["multigraded"].values():
        for degree, count in enumerate(row):
            summed[degree] += count
    assert summed == payload["totals"]


def test_check_subcommand(capsys):
    code, out = run_cli(capsys, "check", "-i", RUN4)
    assert code == 0
    assert out.endswith("check: ok\n")
    assert "lyubeznik: " in out and "minimal=false" in out
    code, out = run_cli(capsys, "check", "-i", RUN4, "--kind", "bm", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["results"][0]["kind"] == "bm"
    assert payload["results"][0]["ranks"] == [1, 4, 4, 1, 0]


GOLDEN_CHECK_RUN4 = (
    "betti: 1 4 4 1 0\n"
    "bm: matching=true homogeneous=true acyclic=true d2=true homology=true "
    "minimal=true ranks=1 4 4 1 0\n"
    "lyubeznik: matching=true homogeneous=true acyclic=true d2=true homology=true "
    "minimal=false ranks=1 4 5 2 0\n"
    "trimmed: matching=true homogeneous=true acyclic=true d2=true homology=true "
    "minimal=true ranks=1 4 4 1 0\n"
    "empty: matching=true homogeneous=true acyclic=true d2=true homology=true "
    "minimal=false ranks=1 4 6 4 1\n"
    "check: ok\n"
)


def test_main_calls_in_one_process_do_not_leak(capsys):
    assert build_parser() is not build_parser()
    code, out = run_cli(capsys, "check", "-i", RUN4, "--kind", "bm", "--json")
    assert code == 0
    assert [entry["kind"] for entry in json.loads(out)["results"]] == ["bm"]
    code, out = run_cli(capsys, "bm", "ranks", "-i", RUN4, "--order", "w*z,w*x,x*y,y*z", "--json")
    assert code == 0 and json.loads(out)["ranks"] == [1, 4, 4, 1, 0]
    with pytest.raises(SystemExit) as info:
        main(["check", "-i", RUN4, "--kind", "nope"])
    assert info.value.code == 2
    capsys.readouterr()
    # no kind, --json or --order of the earlier calls carries over
    code, out = run_cli(capsys, "check", "-i", RUN4)
    assert code == 0 and out == GOLDEN_CHECK_RUN4


def test_one_subcommand_parser_speaks_like_the_whole_tree(capsys):
    whole = build_parser()
    for name in cli._COMMANDS:
        one = build_parser(name)
        assert one.format_usage() == whole.format_usage()
        # its own help, and an error reported with the top-level usage
        for argv in ([name, "--help"], [name, "-i", RUN4, "surplus"]):
            seen = []
            for parser in (whole, one):
                with pytest.raises(SystemExit) as info:
                    parser.parse_args(argv)
                seen.append((info.value.code, capsys.readouterr()))
            assert seen[0] == seen[1], argv


def test_interrupt_is_one_error_line(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_taylor", interrupted)
    code = cli.console_main(["check", "-i", RUN4])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: interrupted\n")
    # an in-process caller of main can still be interrupted
    with pytest.raises(KeyboardInterrupt):
        main(["check", "-i", RUN4])


def test_order_override_changes_results(capsys):
    identity = "y*z,x*y,w*x,w*z"
    code, out = run_cli(capsys, "bm", "ranks", "-i", RUN4, "--order", identity)
    assert code == 0 and out == "1 4 4 1 0\n"
    code, out = run_cli(
        capsys, "bm", "possible-edges", "-i", RUN4, "--order", "w*z,w*x,x*y,y*z"
    )
    assert code == 0
    assert out != GOLDEN_PLAIN[("bm", "possible-edges")]


def test_matching_json_round_trips(capsys):
    code, out = run_cli(capsys, "bm", "matching", "-i", RUN4, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    ideal = parse_ideal(Path(RUN4).read_text())
    index = {s: i for i, s in enumerate(ideal.generator_strings)}
    rebuilt = {
        (
            cell_of(index[name] for name in edge["source"]),
            cell_of(index[name] for name in edge["target"]),
        )
        for edge in payload["edges"]
    }
    assert rebuilt == set(bm_matching(build_taylor(ideal)).edges)


def test_possible_edges_json_carries_bridges(capsys):
    code, out = run_cli(capsys, "bm", "possible-edges", "-i", RUN4, "--json")
    payload = json.loads(out)
    first = payload["edges"][0]
    assert first["sbridge_position"] == 0
    assert first["sbridge"] == "y*z"


def test_gen_round_trips(capsys, tmp_path):
    code, out = run_cli(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out == "vars: x1 x2 x3 x4\ngens: x1*x2 x2*x3 x3*x4 x1*x4\n"

    code, out = run_cli(capsys, "gen", "graph", str(FIXTURES / "square.graph"))
    assert code == 0
    assert out == "vars: x1 x2 x3 x4\ngens: x1*x2 x1*x4 x2*x3 x3*x4\n"

    code, out = run_cli(capsys, "gen", "random", "42", "5", "4")
    assert code == 0
    assert out == "vars: x1 x2 x3 x4 x5\ngens: x2*x3*x4 x1*x3 x3*x4*x5 x1*x2*x4*x5\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 x\n1 2\n", "error: graph file must start with a 'V E' line"),
        ("4 1\n1 b\n", "error: malformed edge line '1 b'"),
    ],
)
def test_gen_graph_names_the_bad_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    assert main(["gen", "graph", str(path)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_domain_errors_exit_1(capsys):
    code, _ = run_cli(capsys, "bm", "matching", "-i", str(FIXTURES / "missing.ideal"))
    assert code == 1
    code, _ = run_cli(capsys, "bm", "ranks", "-i", RUN4, "--order", "y*z,y*z,w*x,w*z")
    assert code == 1
    code, _ = run_cli(capsys, "gen", "cycle", "2")
    assert code == 1


def test_taylor_cap_names_the_library_parameter(capsys):
    assert main(["check", "--cycle", "25"]) == 1
    assert capsys.readouterr().err == (
        "error: ideal has 25 generators, above the Taylor cap of 24; pass a larger "
        "max_generators to build_taylor (the CLI has no override)\n"
    )


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bm", "matching", "-i", "a.ideal", "--cycle", "4"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["bm"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("minimal-search", "-i", RUN4, "--workers", "0"), "--workers: must be at least 1, got 0"),
        (("minimal-search", "-i", RUN4, "--workers", "-3"), "--workers: must be at least 1, got -3"),
        (("friendly-list", "-i", RUN4, "--workers", "0"), "--workers: must be at least 1, got 0"),
        (("minimal-search", "-i", RUN4, "--limit", "-5"), "--limit: must be at least 0, got -5"),
        (("minimal-search", "-i", RUN4, "--limit", "many"), "--limit: invalid integer 'many'"),
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_zero_limit_tries_no_orders(capsys):
    code, out = run_cli(capsys, "minimal-search", "-i", RUN4, "--limit", "0")
    assert code == 0
    assert out == "no order found (tried 0 of 24)\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "morseideals", "bm", "ranks", "-i", RUN4],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 4 4 1 0\n"
