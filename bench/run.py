#!/usr/bin/env python3
"""Closed-loop benchmark of the invsys command line.

    python3 bench/run.py --workload sets --seed 1 --seconds 30 --trace 0

Run from the root of an invsys checkout.  The inputs of the workload are
generated from the seed into a scratch directory under ``bench/out``.  The
parent imports ``invsys.cli`` and never calls into it; each command is a
child forked from it that runs ``invsys.cli.main(["--json", ...])``, so it
starts with cold caches and pays every lazy import, as a fresh ``invsys``
process would, but not interpreter start-up or module import.  One client:
the next command is forked after the previous one is reaped and its output
checked.  A run repeats the workload's command list in whole passes as
long as at least half of the next pass is expected to fit in ``--seconds``.
Between passes, a fresh interpreter is timed importing ``invsys.cli``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates plain and traced passes and reports the tracing overhead.  The
result is also written to ``bench/out/<workload>-seed<n>-trace<t>.json``,
with every latency and, for a traced run, the layer totals of each
traced command.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 9
COMMAND_TIMEOUT_S = 100.0  # a command still running then is killed and counted as failed
HARD_STOP_S = 140.0        # commands not started by then count as failed, so passes stay whole
TRACE_MARK = "@bench-trace "
SHOWN_FAILURES = 5

# per-layer metric -> unit; the times and counts are per traced pass, except
# where the unit says otherwise
LAYER_UNITS = {
    "textio.parse_s": "s/pass", "textio.bytes": "B/pass",
    "poset.self_s": "s/pass", "poset.flags": "count/pass",
    "setsys.validate_s": "s/pass", "setsys.bond_s": "s/pass",
    "setsys.bond_calls": "count/pass", "setsys.limit_threads_s": "s/pass",
    "setsys.threads": "count/pass", "setsys.ml_report_s": "s/pass",
    "setsys.universal_images_s": "s/pass", "setsys.is_surjective_s": "s/pass",
    "henkin.enumerate_s": "s/pass", "henkin.members": "count/pass",
    "intlinalg.smith_s": "s/pass", "intlinalg.smith_calls": "count/pass",
    "intlinalg.smith_cache_hits": "ratio", "intlinalg.smith_entries": "count/pass",
    "intlinalg.lll_s": "s/pass", "intlinalg.lll_calls": "count/pass",
    "intlinalg.kernel_s": "s/pass", "intlinalg.kernel_entry_bits_max": "bits",
    "intlinalg.solve_s": "s/pass", "intlinalg.solve_calls": "count/pass",
    "intlinalg.other_s": "s/pass",
    "abgroups.self_s": "s/pass", "abgroups.hom_equal_calls": "count/pass",
    "abgroups.invariants_calls": "count/pass",
    "derived.nerve_complex_s": "s/pass", "derived.nerve_complex_calls": "count/cmd",
    "derived.cochain_entries": "count/pass", "derived.cohomology_s": "s/pass",
    "derived.validate_s": "s/pass", "derived.other_s": "s/pass",
    "cli.other_s": "s/pass", "trace.overhead": "ratio",
}


@dataclass
class Tally:
    """What the commands of one kind of pass (plain or traced) did."""
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    command_s: float = 0.0          # fork to reap, summed over every command
    pass_s: list = field(default_factory=list)          # wall time of each pass
    pass_command_s: list = field(default_factory=list)  # command time of each pass
    latencies: list = field(default_factory=list)  # of completed commands
    peak_rss_kb: int = 0
    traces: list = field(default_factory=list)  # layer totals of each traced command


def load_cli():
    """Import invsys.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "invsys" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'invsys'} not found; run from the root of an invsys checkout")
    sys.path.insert(0, str(SRC))
    import invsys.cli
    if Path(invsys.cli.__file__).resolve().parent != (SRC / "invsys").resolve():
        sys.exit(f"error: imported invsys from {invsys.cli.__file__}, not from {SRC}")
    return invsys.cli


def cold_start_s() -> float:
    """Wall time of a fresh interpreter running ``import invsys.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import invsys.cli"], env=env, check=True)
    return time.perf_counter() - start


def run_command(cli, argv, workdir, tracer, deadline):
    """Fork one command; return (exit status, seconds, ru_maxrss in KiB, output)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(cli, argv, workdir, tracer, r, w)
    os.close(w)
    chunks, killed = [], False
    try:
        while True:
            ready, _, _ = select.select([r], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = -signal.SIGKILL if killed else os.waitstatus_to_exitcode(status)
    return code, seconds, usage.ru_maxrss, b"".join(chunks).decode(errors="replace")


def _child(cli, argv, workdir, tracer, r, w):
    code = 3
    try:
        os.close(r)
        os.dup2(w, 1)
        os.dup2(w, 2)
        os.close(w)
        os.chdir(workdir)
        try:
            code = cli.main(["--json", *argv])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        if tracer is not None:
            print(TRACE_MARK + json.dumps(tracer.snapshot()))
    except BaseException:
        traceback.print_exc()
        code = 3  # a traceback; a real invsys process would exit 1, a false verdict
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def judge(command, status, output):
    """(report, trace, reason): reason is None for a correct completed command."""
    report = trace = None
    for line in output.splitlines():
        try:
            if line.startswith(TRACE_MARK):
                trace = json.loads(line[len(TRACE_MARK):])
            elif line.startswith("{"):
                report = json.loads(line)
        except ValueError:  # a line cut short by a killed child
            pass
    if status not in (0, 1):
        tail = output.strip().splitlines()[-1:] or ["no output"]
        return report, trace, f"exit {status}: {tail[0]}"
    if report is None:
        return report, trace, "no JSON report"
    try:
        return report, trace, command.check(status, report)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        return report, trace, f"report not readable: {exc!r}"


def run_pass(cli, cases, workdir, tracer, tally, hard_stop, failures):
    tally.passes += 1
    before = tally.command_s
    for case in cases:
        reports, case_ok = [], True
        for command in case.commands:
            tally.attempted += 1
            if time.perf_counter() > hard_stop:
                tally.failed += 1
                case_ok = False
                continue
            deadline = min(time.perf_counter() + COMMAND_TIMEOUT_S, hard_stop)
            status, seconds, rss, output = run_command(cli, command.argv, workdir, tracer,
                                                       deadline)
            tally.command_s += seconds
            tally.peak_rss_kb = max(tally.peak_rss_kb, rss)
            report, trace, reason = judge(command, status, output)
            if trace is not None:
                tally.traces.append({"argv": command.argv, "seconds": seconds, "layers": trace})
            if reason is None:
                tally.latencies.append(seconds)
                reports.append(report)
                continue
            tally.failed += 1
            tally.wrong += status in (0, 1)
            case_ok = False
            failures.append(f"{' '.join(command.argv)}: {reason}")
        if case_ok and case.joint is not None:
            reason = case.joint(reports)
            if reason is not None:
                n = len(case.commands)
                tally.failed += n
                tally.wrong += n
                del tally.latencies[-n:]
                failures.append(f"{case.name}: {reason}")
    tally.pass_command_s.append(tally.command_s - before)


def layer_metrics(traced: Tally, plain: Tally) -> dict:
    totals = {}
    for trace in traced.traces:
        for name, value in trace["layers"].items():
            if name.endswith("_max"):
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    commands = max(1, len(traced.traces))
    self_s = sum(v for k, v in totals.items() if k.endswith("_s"))
    totals["cli.other_s"] = sum(t["seconds"] for t in traced.traces) - self_s
    calls = totals.get("intlinalg.smith_calls", 0)
    values = {}
    for name, unit in LAYER_UNITS.items():
        value = totals.get(name, 0)
        if name == "intlinalg.smith_cache_hits":
            value = totals.get("intlinalg.smith_hits", 0) / calls if calls else 0.0
        elif name == "trace.overhead":
            value = (traced.command_s / traced.passes) / (plain.command_s / plain.passes) - 1
        elif unit == "count/cmd":
            value /= commands
        elif unit.endswith("/pass"):
            value /= traced.passes
        values[name] = {"value": value, "unit": unit}
    return values


def measure(cli, cases, workdir, seconds, trace, hard_stop):
    """Run whole passes, alternating plain and traced ones when tracing.

    Returns the tallies by kind of pass, the cold-start times and the failures.
    """
    tracer = tracing.Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    tallies = {kind: Tally() for kind in kinds}
    cold_s, failures = [], []
    start = time.perf_counter()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        tally = tallies[traced]
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            run_pass(cli, cases, workdir, tracer if traced else None, tally, hard_stop,
                     failures)
        finally:
            if traced:
                tracer.uninstall()
        tally.pass_s.append(time.perf_counter() - t0)
        # cold starts keep pace with the run, so they sample the same host speed
        while not trace and len(cold_s) < COLD_STARTS * min(
                1.0, (time.perf_counter() - start) / seconds):
            cold_s.append(cold_start_s())
        following = tallies[kinds[(i + 1) % len(kinds)]]
        expected = statistics.mean(following.pass_s or tally.pass_s)
        if i + 1 >= len(kinds) and time.perf_counter() - start + expected / 2 > seconds:
            break
    while not trace and len(cold_s) < COLD_STARTS:
        cold_s.append(cold_start_s())
    return tallies, cold_s, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    hard_stop = time.perf_counter() + HARD_STOP_S
    cases = workloads.build(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for case in cases:
            for name, text in case.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        if not args.trace:
            cold_start_s()  # writes the bytecode cache
        gc.collect()
        gc.freeze()  # children then leave the parent's objects out of their collections
        tallies, cold_s, failures = measure(cli, cases, workdir, args.seconds, args.trace,
                                            hard_stop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:SHOWN_FAILURES]:
        print(f"failed: {line}", file=sys.stderr)
    plain = tallies[False]
    if args.trace:
        metrics = layer_metrics(tallies[True], plain)
    else:
        completed = plain.attempted - plain.failed
        metrics = {
            "setup_s": {"value": statistics.median(cold_s), "unit": "s"},
            "cmds_per_s": {"value": completed / plain.command_s, "unit": "1/s"},
            "cmd_p50_s": {"value": statistics.median(plain.latencies or [0.0]), "unit": "s"},
            "peak_rss_mb": {"value": plain.peak_rss_kb / 1024, "unit": "MB"},
        }
    result = {"correct": not any(t.wrong for t in tallies.values()),
              "attempted": sum(t.attempted for t in tallies.values()),
              "failed": sum(t.failed for t in tallies.values()),
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"failures": failures, "cold_s": cold_s,
               **{f"{'traced' if k else 'plain'}_passes": vars(t) for k, t in tallies.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **details}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
