#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workloads check-deep,serve-mixed --seeds 1-10 \
        [--size full|tiny] [--seconds S] [--save runs.json] [--against earlier.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric of every workload its median, the
distance between its first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)) and that spread against the metric's
bound from BENCHMARK.json.  A spread below a third of the bound is
"steady"; up to the bound it is "within"; beyond it, "NOISY".

With --against, the medians of this set of runs are compared with an
earlier set saved with --save: a median worse than the earlier one by
more than the bound is a "REGRESSION".  The exit status is 1 if any
metric is NOISY or a REGRESSION, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, size):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--size", size]
    t = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d (exit %d)\n%s" % (
            workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values):
    """(median, (q3 - q1) / median) of a list of values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(new, old, better):
    """How much worse the new median is than the old, as a share of the old."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def report(runs, spec, against=None):
    """Print the table; return the number of NOISY and REGRESSION findings."""
    bad = 0
    for workload in sorted(runs):
        results = runs[workload]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        elapsed = [r.get("elapsed_s", 0) for r in results]
        print("%s: %d runs, %d/%d ops failed, correct=%s, run time %.1f-%.1f s" % (
            workload, len(results), failed, attempted, correct, min(elapsed), max(elapsed)))
        if not correct:
            bad += 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values)
            if sp <= bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within"
            else:
                verdict = "NOISY"
                bad += 1
            line = "  %-12s median %12.6g %-5s spread %6.3f  bound %.2f  (%.2f of bound) %s" % (
                name, med, m["unit"], sp, bound, sp / bound, verdict)
            if against and workload in against:
                old = statistics.median(r["metrics"][name]["value"] for r in against[workload])
                w = worse_by(med, old, m["better"])
                line += "  worse than earlier by %+.3f" % w
                if w > bound:
                    line += " REGRESSION"
                    bad += 1
            print(line)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare medians with runs saved earlier")
    args = ap.parse_args()
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seeds_of(args.seeds):
            runs[w].append(run_once(w, seed, seconds, args.size))
            if args.save:
                with open(args.save, "w") as f:
                    json.dump(runs, f)
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    sys.exit(1 if report(runs, spec, against) else 0)


if __name__ == "__main__":
    main()
