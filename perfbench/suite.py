"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/suite.py [--workloads cli,sweep,exact,deep] [--runs 10]
                               [--first-seed 1] [--seconds S] [--out FILE]

Run it from the repository root.  Each run is one ``run.py`` process; runs
go one at a time.  For every workload and metric it prints the median, the
quartiles and their distance as a share of the median, next to the bound
``BENCHMARK.json`` fixes, and flags a spread wider than a third of the
bound (``setup_s`` excepted, whose spread has no limit).  ``--out`` writes
the medians, every run's values and one traced run per workload (on the
first seed) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    result["seed"] = seed
    return result


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median)


def summarise(runs: list[dict], metrics: list[dict]) -> tuple[dict, list[str], bool]:
    medians, lines, steady = {}, [], True
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median, q1, q3, share = spread(values)
        medians[m["name"]] = median
        limit = m["bound"] / 3
        ok = m["name"] == "setup_s" or share <= limit
        steady &= ok
        lines.append(f"  {m['name']:18s} {median:14.6f} {m['unit']:6s} "
                     f"q1 {q1:12.6f} q3 {q3:12.6f} spread {share:7.2%} "
                     f"bound {m['bound']:.0%}{'' if ok else '  WIDE'}")
    return medians, lines, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="cli,sweep,exact,deep")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    report = {"run_seconds": seconds, "recorded_seed": run.DEFAULT_SEED,
              "claim_seed": run.CLAIM_SEED, "workloads": {}}
    all_steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        medians, lines, steady = summarise(runs, bench["end_to_end"])
        all_steady &= steady
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, "
              f"attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}", flush=True)
        print("\n".join(lines), flush=True)
        traced = run_once(workload, args.first_seed, seconds, trace=1) if args.out else None
        report["workloads"][workload] = {
            "medians": medians,
            "failed_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "runs": runs,
            "traced": traced,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
