#!/usr/bin/env python3
"""Run benchmark workloads repeatedly in fresh processes and summarise.

Each run is a separate invocation of the command in BENCHMARK.json with
its own seed. For every metric the script prints the median, the first
and third quartiles (Python's statistics.quantiles(values, n=4)) and the
spread: (q3 - q1) / median. End-to-end bounds in BENCHMARK.json are
derived from these spreads.

Run from the repository root:

    python3 perfbench/repeat.py --runs 10
    python3 perfbench/repeat.py --runs 5 --workload sample-scale --first-seed 100
    python3 perfbench/repeat.py --runs 2 --trace 1

Exits non-zero if any run fails, prints no result, or reports
`correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # One build directory for every run, the one .gitignore lists.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1]), elapsed


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
            ok &= result["correct"]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  > bound"
            print(f"  {name + ' (' + unit + ')':32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
