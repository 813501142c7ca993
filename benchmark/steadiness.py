"""Steadiness of the benchmark: repeat workloads and summarize each metric.

    python3 benchmark/steadiness.py --workloads grid-ops small-nets \
        --runs 10 [--sets 2]

Runs ``run.py --trace 0`` once per (set, run, workload) for the
``run_seconds`` of BENCHMARK.json, one run at a time,
with a new seed for every run (set s, run r uses seed 1 + 100 s + r).  With
two sets the runs alternate which set goes first.  For every workload and
metric it prints the median, the quartiles, the quartile spread (q3 - q1)
as a share of the median and the max/min ratio, and, when a metric has a
bound in BENCHMARK.json, whether the spread stays within a third of that
bound and how far the second set's median moved from the first's.  The
share of failed operations is printed per set; it must be the same in every
run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["diagnostics"] = proc.stderr.strip().splitlines()[-1]
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan"), max(values) / min(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {(w, s): [] for w in args.workloads for s in range(args.sets)}
    for r in range(args.runs):
        order = range(args.sets) if r % 2 == 0 else reversed(range(args.sets))
        for s in order:
            for w in args.workloads:
                seed = 1 + 100 * s + r
                out = run_once(w, seed, seconds)
                results[(w, s)].append(out)
                print(f"# {w} set {s} seed {seed}: correct={out['correct']} "
                      f"failed {out['failed']}/{out['attempted']}; {out['diagnostics']}",
                      file=sys.stderr, flush=True)

    for w in args.workloads:
        print(f"\n== {w}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        medians = {}
        for s in range(args.sets):
            runs = results[(w, s)]
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"set {s}: all correct={all(r['correct'] for r in runs)}, "
                  f"failed shares {shares}")
            print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'iqr/med':>8s} {'max/min':>8s}  bound")
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread, ratio = summarize(values)
                medians[(name, s)] = med
                bound = bounds.get(name)
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = f"{bound:g} {'ok' if spread <= bound / 3 else 'WIDE'}"
                elif bound is not None:
                    verdict = f"{bound:g}"
                print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {ratio:8.4f}  {verdict}")
        if args.sets == 2:
            print("  shift of the second set's median against the first:")
            for name, bound in bounds.items():
                if (name, 0) in medians:
                    shift = medians[(name, 1)] / medians[(name, 0)] - 1.0
                    print(f"    {name:38s} {shift:+.4f} (bound {bound:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
