"""Benchmark of the morseideals command line, run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One *pass* runs the workload's command list (see ``workloads.py``) through
``morseideals.cli.main`` in this process, with stdout and stderr captured.
Passes repeat while the next one fits in ``--seconds`` (at least two run),
and every output goes through the workload's correctness gate.  A fixed
reference loop is timed while the commands run, and the end-to-end times
are calibrated by it (``calibration.py``); traced runs stay raw.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes (at least one of each)
and prints the per-layer metrics; the spans go to ``.bench_out/``.  The last
line of stdout is one JSON object; the exit code is 1 when a gate fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
# a median of at least two, and on order_search the same heap at each pool fork
MIN_PASSES = 2
_PROGRESS = re.compile(r"^(\d+)/\d+ orders$", re.M)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def orders_covered(stderr: str) -> int:
    """Orders reached by a search: the last ``tried/total`` progress line."""
    found = _PROGRESS.findall(stderr)
    return int(found[-1]) if found else 0


def run_pass(commands, entry, cal, sample: bool):
    """Run the command list once; return the raw pass wall time, per call
    ``(exit code, seconds, stdout, stderr)``, and the range of the pass's
    samples in ``cal.samples``.

    With ``sample``, reference samples of ``cal`` interrupt the commands,
    except those beside search workers, and their time is taken off.
    """
    calls = []
    first, spent = len(cal.samples), cal.spent
    start = time.perf_counter()
    with cal.sampling(sample):
        for index, command in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            cal.paused = command.pool
            t0, before = time.perf_counter(), cal.spent
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = entry(index, list(command.argv))
                except SystemExit as exc:  # argparse rejects the arguments
                    rc = exc.code
                except Exception:  # recorded as a failed call; the pass goes on
                    traceback.print_exc()
                    rc = None
            seconds = time.perf_counter() - t0 - (cal.spent - before)
            calls.append((rc, seconds, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start - (cal.spent - spent), calls, (first, len(cal.samples))


def calibrated_pass(commands, wall, calls, factor: float, pool_factor: float):
    """Scale one pass: the commands run in this process by ``factor``, the
    pass's own, and those beside search workers by ``pool_factor``, the
    run's.  The samples time only this process's vCPU, and the workers run
    on every vCPU: within a run the pass's factor did not follow their
    time, but across runs at different host speeds the run's factor did."""
    scaled = [
        (rc, seconds * (pool_factor if command.pool else factor), out, err)
        for command, (rc, seconds, out, err) in zip(commands, calls)
    ]
    pool = sum(seconds for command, (_, seconds, _, _) in zip(commands, calls) if command.pool)
    return wall * factor + pool * (pool_factor - factor), scaled, factor


def gate_pass(commands, calls, label: str) -> int:
    """Apply each command's gate; report problems on stderr, return the
    number of failed calls."""
    docs: list = []
    failed = 0
    for command, (rc, _, stdout, stderr) in zip(commands, calls):
        doc, problems = workloads.gate_problems(command, rc, stdout, docs)
        docs.append(doc)
        if problems:
            failed += 1
            print(f"FAIL {label} {command.label}: {'; '.join(problems)}", file=sys.stderr)
            if stderr.strip():
                print(stderr.rstrip()[-2000:], file=sys.stderr)
    return failed


def time_setup(name: str, seed: int, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter to the moment it has
    imported the package and made the workload's inputs (``probe.py``).

    The probe reports that moment on the system-wide monotonic clock, so
    its exit and the parent's wake-up are not counted.  Reference samples
    taken just before and after a probe did not follow its time, and scaling
    by them made it spread more; across runs at different host speeds, the
    factor of the run's passes did follow it, in part.
    """
    times = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed), str(workdir / f"probe{k}")]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(float(out) - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children
    (the search workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "morseideals" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no morseideals sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands = workloads.prepare(args.workload, args.seed, workdir)
        return measure(args, spec, commands, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, commands, workdir) -> int:
    import morseideals.cli

    cli_main = morseideals.cli.main
    cal = calibration.Calibration()
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    attempted = failed = 0
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        label = f"pass {len(plain) + len(traced) + 1}"
        if trace_this:
            tracer = tracing.Tracer(args.workload, len(plain) + len(traced) + 1)
            root = tracer.wrap(cli_main, "cli.main")

            def entry(index, argv):
                tracer.call = index
                return root(argv)

            with tracer.installed():
                wall, calls, _ = run_pass(commands, entry, cal, sample=False)
            for index, call in enumerate(calls):
                tracer.call = index
                tracer.add_counts({"search.orders_covered": orders_covered(call[3])})
            traced.append((wall, calls, tracer))
        else:
            # traced runs report raw times: their passes are not interrupted
            wall, calls, samples = run_pass(
                commands, lambda index, argv: cli_main(argv), cal, sample=not args.trace
            )
            plain.append((wall, calls, samples))
        attempted += len(calls)
        failed += gate_pass(commands, calls, label)
        if len(plain) + len(traced) < MIN_PASSES:
            continue
        # start another pass only if one as long as the longest yet still fits
        longest = max(p[0] for p in plain + traced)
        if time.perf_counter() + longest > deadline:
            break

    nproc, workers = workloads.nproc(), workloads.search_workers()
    problems: list[str] = []
    run_factor = cal.factor(0)
    plain = [
        calibrated_pass(commands, wall, calls, cal.factor(*samples), run_factor)
        for wall, calls, samples in plain
    ]
    if args.trace:
        per_pass = [tracer.metrics() for _, _, tracer in traced]
        metrics = trace_metrics(plain, traced, per_pass, commands)
        problems = tracing.count_problems(per_pass, workloads.PINNED_COUNTS[args.workload])
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for _, _, tracer in traced:
                tracer.dump(fh)
        wanted = spec["per_layer"]
    else:
        metrics = plain_metrics(args, plain, commands, workdir, run_factor)
        wanted = spec["end_to_end"]
    for problem in problems:
        print(f"FAIL counts: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    check_calls = sum(c.argv[0] == "check" for c in commands) * len(plain)
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(traced)} traced passes of {len(commands)} commands, {check_calls} untraced "
        f"check calls, nproc {nproc}, search workers {workers}"
    )
    print(f"  fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} commands)")
    if cal.samples:
        print(
            f"  calibration: {len(cal.samples)} reference samples, mean "
            f"{statistics.fmean(cal.samples) * 1000:.3f} ms, nominal {calibration.NOMINAL_S * 1000:.3f} ms; "
            f"factor {run_factor:.4f} for the run, per pass " + " ".join(f"{f:.4f}" for _, _, f in plain)
        )
    print("  untraced pass walls: " + " ".join(f"{wall:.3f}" for wall, _, _ in plain) + " s")
    rate = metrics.pop("orders_per_s", 0.0)
    if rate:
        print(f"  orders_per_s {rate:.1f} orders/s (C10 first-hit)")
    result = {}
    for item in wanted:
        value = metrics[item["name"]]
        result[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"  {item['name']} {value:.6g} {item['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def _first_hit_rate(commands, calls) -> float:
    """``orders_tried`` of the C10 first-hit command over its wall time."""
    for command, (rc, seconds, stdout, _) in zip(commands, calls):
        if command.label == "c10_first_hit" and rc == 0:
            return json.loads(stdout)["orders_tried"] / seconds
    return 0.0


def plain_metrics(args, plain, commands, workdir, run_factor: float) -> dict:
    """End-to-end metrics from the calibrated passes; the set-up is scaled
    by the run's factor, for the reason given in ``time_setup``."""
    check_ms = [
        seconds * 1000
        for _, calls, _ in plain
        for command, (_, seconds, _, _) in zip(commands, calls)
        if command.argv[0] == "check"
    ]
    rss = peak_rss_mb()  # read before the set-up probes add children
    return {
        "setup_s": time_setup(args.workload, args.seed, workdir) * run_factor,
        "wall_s": statistics.median(wall for wall, _, _ in plain),
        "check_ms.p50": percentile(check_ms, 0.50),
        "check_ms.p95": percentile(check_ms, 0.95),
        "peak_rss_mb": rss,
        "orders_per_s": statistics.median(_first_hit_rate(commands, calls) for _, calls, _ in plain),
    }


def trace_metrics(plain, traced, per_pass, commands) -> dict:
    names = set().union(*per_pass)
    metrics = {n: statistics.median(m.get(n, 0) for m in per_pass) for n in names}
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    covered = metrics["search.orders_covered"]
    metrics["search.useful_ratio"] = metrics["search.orders_tried"] / covered if covered else 0.0
    metrics["search.orders_per_s"] = statistics.median(
        _first_hit_rate(commands, calls) for _, calls, _ in traced
    )
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(wall for wall, _, _ in plain)
    metrics["trace.coverage"] = metrics["trace.self_s"] / traced_wall
    return metrics


if __name__ == "__main__":
    sys.exit(main())
