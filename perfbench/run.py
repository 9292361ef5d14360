"""qeshydro benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,sweep,exact,deep} [--seed N]
                             [--seconds S] [--trace 0|1]

Run it from the repository root; it imports the package from ./src.  The
load is one closed-loop client in this process: the next unit starts when
the previous one has finished, and ``cli`` runs one child process at a time.

With ``--trace 0`` the run times a fixed number of units of fresh inputs:
the whole blocks that take about ``--seconds`` seconds at the workload's
nominal rate, and at least the seed's prefix, over which the ratios are
taken.  So two runs with the same seed attempt the same units and fail the
same ones.  It then starts fresh processes to time set-up.  With
``--trace 1`` it runs the prefix once with timing wrappers installed on the package's layer
boundaries, and an equal number of further units without them, and reports
the per-layer metrics.  Report lines start with ``#``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads
from tracing import Tracer, import_times, layer_metrics

#: The recorded seed.  ``CLAIM_SEED`` is kept for checking claims: no change
#: may be tuned against it.
DEFAULT_SEED = 1
CLAIM_SEED = 20261017
SETUP_PROBES = 5
FIRST_CAUSES = 3


def version(dist: str) -> str:
    """Installed version, read without importing the package."""
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def say(line: str = "") -> None:
    print(f"# {line}", flush=True)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def time_setup(workload: str, seed: int, root: str) -> list[float]:
    """Seconds from starting a fresh process to its 'ready' line, which it
    prints after importing qeshydro and generating the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__),
             "--probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=root)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return times


def summarise(wl, tallies) -> dict:
    prefix = tallies[:wl.prefix_size]
    total = {key: sum(getattr(t, key) for t in prefix)
             for key in ("expected", "found", "acc_expected", "accurate",
                         "returned", "verified", "outside")}
    return {
        "failed_ratio": sum(t.cause is not None for t in prefix) / len(prefix),
        "roots_found_ratio": total["found"] / total["expected"],
        "accurate_ratio": total["accurate"] / total["acc_expected"],
        "verified_ratio": total["verified"] / max(1, total["returned"]),
        "base": total,
    }


def report_checks(wl, tallies) -> bool:
    """Print the failure taxonomy and invariant breaches; True when no
    output broke an invariant."""
    causes: dict[str, list] = {}
    breaches = []
    for i, t in enumerate(tallies):
        if t.cause is not None:
            causes.setdefault(t.cause, []).append(i)
        if t.violations:
            breaches.append((i, t.violations))
    for cause, idx in sorted(causes.items(), key=lambda kv: -len(kv[1])):
        say(f"failed {len(idx):5d} x {cause}")
        for i in idx[:FIRST_CAUSES]:
            say(f"      e.g. {wl.unit(i).describe()}")
    for i, violations in breaches[:FIRST_CAUSES]:
        say(f"WRONG OUTPUT {wl.unit(i).describe()}: {'; '.join(violations)}")
    if breaches:
        say(f"{len(breaches)} units broke an invariant")
    return not breaches


def ratio_lines(wl, tallies) -> dict:
    s = summarise(wl, tallies)
    b = s["base"]
    n = len(tallies[:wl.prefix_size])
    say(f"ratios over the seed's prefix of {n} units:")
    say(f"  failed_ratio      {s['failed_ratio']:.6f}  "
        f"({round(s['failed_ratio'] * n)} of {n} units)")
    say(f"  roots_found_ratio {s['roots_found_ratio']:.6f}  "
        f"({b['found']} of {b['expected']} strengths)")
    say(f"  accurate_ratio    {s['accurate_ratio']:.6f}  "
        f"({b['accurate']} of {b['acc_expected']} strengths; {b['outside']} "
        f"beyond the spectral bound)")
    say(f"  verified_ratio    {s['verified_ratio']:.6f}  "
        f"({b['verified']} of {b['returned']} states)")
    return s


def untraced(args, wl, q, root):
    walls, tallies = [], []
    for i in range(wl.run_size(args.seconds)):
        u = wl.unit(i)
        start = time.perf_counter()
        out = wl.run(q, u)
        walls.append(time.perf_counter() - start)
        tallies.append(wl.check(u, out))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    setup = time_setup(args.workload, args.seed, root)

    correct = report_checks(wl, tallies)
    s = ratio_lines(wl, tallies)
    n = len(walls)
    ms = [1e3 * w for w in walls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "units_per_s": (n / sum(walls), "1/s"),
        "unit_ms_p50": (statistics.median(ms), "ms"),
        "unit_ms_p90": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "roots_found_ratio": (s["roots_found_ratio"], "ratio"),
        "accurate_ratio": (s["accurate_ratio"], "ratio"),
    }
    say(f"timings over {n} units, {n - round(0.9 * n)} above p90; set-up is the "
        f"median of {len(setup)} fresh processes; peak RSS of "
        f"{'the child processes' if wl.name == 'cli' else 'this process'}")
    failed = sum(t.cause is not None for t in tallies)
    return correct, n, failed, metrics


def traced(args, wl, q, root):
    importlib.import_module("qeshydro.cli")
    n = wl.prefix_size
    plain = []
    for i in range(n, 2 * n):
        u = wl.unit(i)
        start = time.perf_counter()
        wl.replay(q, u)
        plain.append(time.perf_counter() - start)

    tracer = Tracer()
    for name in tracer.install(q):
        say(f"not traced, absent from the package: {name}")
    walls, tallies = [], []
    try:
        for i in range(n):
            u = wl.unit(i)
            tracer.unit = i
            start = time.perf_counter()
            out = wl.replay(q, u)
            walls.append(time.perf_counter() - start)
            tallies.append(wl.check(u, out))
    finally:
        tracer.uninstall()

    correct = report_checks(wl, tallies)
    s = ratio_lines(wl, tallies)
    metrics, lines = layer_metrics(tracer, walls)
    metrics.update(import_times(workloads.child_env(root), root))
    metrics["verify.verified_ratio"] = (s["verified_ratio"], "ratio")
    plain_rate, traced_rate = n / sum(plain), n / sum(walls)
    metrics["trace.overhead_units_per_s"] = (plain_rate - traced_rate, "1/s")
    say(f"self time per span over {n} traced units "
        f"({'in-process cli.main' if wl.name == 'cli' else 'the timed unit'}):")
    for line in lines:
        say("  " + line)
    say(f"tracing overhead: {plain_rate:.3f} units/s untraced over the next {n} "
        f"units, {traced_rate:.3f} traced")
    say("no layer waits: units run one at a time in one thread")
    failed = sum(t.cause is not None for t in tallies)
    return correct, n, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qeshydro", "__init__.py")):
        sys.exit("perfbench: no ./src/qeshydro here; run from the repository root")
    sys.path.insert(0, src)
    import qeshydro as q
    if not os.path.abspath(q.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: qeshydro was imported from {q.__file__}, not ./src")
    wl = workloads.WORKLOADS[args.workload](args.seed, root)
    if args.probe:
        print("ready", flush=True)
        return 0

    say(f"qeshydro benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    say(f"python {platform.python_version()} numpy {version('numpy')} "
        f"scipy {version('scipy')} nproc {os.cpu_count()}; one closed-loop client")
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args, wl, q, root)
    for name, (value, unit) in metrics.items():
        say(f"{name:45s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
