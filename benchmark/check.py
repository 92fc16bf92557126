#!/usr/bin/env python3
"""Repeatability checks over the benchmark's result lines.

  check.py spread [--seeds N] [--seconds S] [workload...]
      Runs each workload once per seed 1..N and prints, per end-to-end
      metric, the interquartile range as a share of the median (the
      spread the driver computes) next to the metric's bound.

  check.py aa [--runs N] [--seed K] [--seconds S] [workload...]
      Two sets of N runs of the same build and seed, alternating which
      set runs first. Fails if a metric's two medians differ by more than
      its bound, or if a simulated metric (cluster_*, replication_degree)
      differs at all.

Both read BENCHMARK.json from the repository root and call the built
binary named by $BENCH_BIN (run.sh, aa.sh and spread.sh set it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SIMULATED = ("cluster_", "replication_degree")


def run(workload, seed, seconds, trace=0):
    cmd = [os.environ["BENCH_BIN"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_spread(args):
    worst = 0.0
    for w in args.workloads:
        runs = [run(w, seed, args.seconds) for seed in range(1, args.seeds + 1)]
        print(f"\n{w}: {args.seeds} seeds, {args.seconds} s each")
        print(f"{'metric':<24}{'median':>16}{'spread':>9}{'bound':>8}")
        for m in SPEC["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            s = spread(values)
            flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{m['name']:<24}{statistics.median(values):>16.6g}{s:>9.4f}{m['bound']:>8.2f}{flag}")
    print(f"\nworst spread/bound (setup_s aside): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def cmd_aa(args):
    failures = 0
    for w in args.workloads:
        sets = ([], [])
        for i in range(args.runs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[side].append(run(w, args.seed, args.seconds))
        print(f"\n{w}: 2 x {args.runs} runs, seed {args.seed}")
        print(f"{'metric':<24}{'median A':>16}{'median B':>16}{'worse by':>10}{'bound':>8}")
        for m in SPEC["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in sets[0])
            b = statistics.median(r[m["name"]] for r in sets[1])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            exact = m["name"].startswith(SIMULATED)
            bad = (a != b) if exact else abs(worse) > m["bound"]
            failures += bad
            print(f"{m['name']:<24}{a:>16.6g}{b:>16.6g}{worse:>10.4f}"
                  f"{'exact' if exact else format(m['bound'], '.2f'):>8}{'  FAIL' if bad else ''}")
    print(f"\n{failures} metric(s) outside their bound")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "aa"):
        s = sub.add_parser(name)
        s.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
        s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    sub.choices["spread"].add_argument("--seeds", type=int, default=10)
    sub.choices["aa"].add_argument("--runs", type=int, default=3)
    sub.choices["aa"].add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.exit(cmd_spread(args) if args.cmd == "spread" else cmd_aa(args))


if __name__ == "__main__":
    main()
