#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--expect-wrong]

Run from the root of a source checkout.  It builds perfbench/bench.exe
and bin/serve.exe from source with dune (build directory .bench_build),
then runs the workload in a fresh process with DOMAINS cleared, so the
explorer stays sequential whatever the caller's environment.

--trace 0 measures the end-to-end metrics.  --trace 1 runs the workload
twice, each for half the time in its own process: once untraced, as the
base for the tracing overhead and span coverage, and once with spans on,
which gives the per-layer metrics.  Where the traced run computes its
answers call by call (check-deep, sweep-24), the digest of its first
unit's answers must equal the untraced run's, or the comparison counts
as a failed op.  The metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it start with '#'
and give the sample count of every figure, nproc, the OCaml version and,
for the workloads timed on the pace clock (perfbench/pace.ml), the host
speed it measured and the unscaled unit time.
Exit status 1, with no result line, means the build or the run failed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0
WORKLOADS = ("check-deep", "sweep-24", "bgp-100k", "serve-mixed")
CHILD = []  # the pid of the running workload process, if any


class Failure(Exception):
    pass


def build():
    if shutil.which("dune") is None:
        raise Failure("dune is not on PATH")
    # No shared dune cache: the build reads and writes inside the checkout.
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
           "--profile", "release", "./perfbench/bench.exe", "./bin/serve.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise Failure("build failed (exit %d)" % p.returncode)
    exe = lambda rel: os.path.join(ROOT, BUILD_DIR, "default", rel)
    return exe("perfbench/bench.exe"), exe("bin/serve.exe")


def stop_group(pgid):
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def stop_on_signal(signum, _frame):
    """A killed run.py takes the workload's processes with it."""
    if CHILD:
        stop_group(CHILD[0])
    sys.exit(128 + signum)


def run_child(bench, serve, args, seconds, trace, deadline):
    """One workload run in a fresh process; returns its result object."""
    env = {k: v for k, v in os.environ.items() if k != "DOMAINS"}
    run_dir = os.path.join(RUN_DIR, "%s-%s" % (args.workload, "trace" if trace else "plain"))
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--size", args.size,
           "--serve", serve, "--run-dir", run_dir]
    if args.expect_wrong:
        cmd.append("--expect-wrong")
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    CHILD[:] = [p.pid]
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.communicate()
        raise Failure("%s run timed out" % args.workload)
    finally:
        # The serve daemon shares the child's process group: nothing the
        # child started may outlive it.
        stop_group(p.pid)
        CHILD.clear()
    lines = out.splitlines()
    if p.returncode != 0 or not lines:
        raise Failure("%s run failed (exit %d)" % (args.workload, p.returncode))
    for line in lines[:-1]:
        print(line if line.startswith("#") else "# " + line)
    return json.loads(lines[-1])


def spec_metrics(spec, key):
    return [(m["name"], m["unit"]) for m in spec[key]]


def pick(result, wanted, fill_zero):
    """The wanted metrics of a child's result, checked against their units."""
    got = result["metrics"]
    out = {}
    for name, unit in wanted:
        m = got.get(name)
        if m is None:
            if not fill_zero:
                raise Failure("%s did not report %s" % (result["workload"], name))
            # A layer the workload does not exercise did no work.
            m = {"value": 0, "unit": unit, "samples": 0}
        if m["unit"] != unit:
            raise Failure("%s: unit %s, expected %s" % (name, m["unit"], unit))
        if not math.isfinite(m["value"]):
            raise Failure("%s: value %r" % (name, m["value"]))
        out[name] = m
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--expect-wrong", action="store_true",
                    help="check answers against wrong references (tests the gate)")
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop_on_signal)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = spec_metrics(spec, "end_to_end")
    layers = spec_metrics(spec, "per_layer")

    bench, serve = build()
    deadline = time.time() + DEADLINE_S
    if args.trace == 0:
        results = [run_child(bench, serve, args, args.seconds, 0, deadline)]
        metrics = pick(results[0], e2e, fill_zero=False)
    else:
        half = args.seconds / 2
        plain = run_child(bench, serve, args, half, 0, deadline)
        traced = run_child(bench, serve, args, half, 1, deadline)
        results = [plain, traced]
        if plain["answers"]:
            # The traced run computes the answers one public call at a
            # time; they must be the untraced run's, which the library
            # computed.
            differ = plain["answers"] != traced["answers"]
            results.append({"attempted": 1, "failed": int(differ), "failures":
                            ["traced answers differ from the untraced run's"] if differ else []})
        base = plain["metrics"]["wall_s"]["value"]
        derived = {
            "harness.trace_overhead": traced["metrics"]["wall_s"]["value"] / base - 1,
            # What the spans cover of the untraced run's unit of work.
            "harness.span_coverage":
                traced["metrics"].get("harness.layer_time_s", {"value": 0})["value"] / base,
        }
        for name, value in derived.items():
            traced["metrics"][name] = {"value": value, "unit": "ratio", "samples": 1}
        metrics = pick(traced, layers, fill_zero=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"]:
            print("# failed: " + msg)
    nproc = results[0]["nproc"]
    print("# %s seed=%d nproc=%d%s ocaml=%s" % (
        args.workload, args.seed, nproc, " (single-core)" if nproc == 1 else "",
        results[0]["ocaml"]))
    for name, m in metrics.items():
        print("# %-34s %14.6g %-8s over %d samples" % (name, m["value"], m["unit"], m["samples"]))
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        sys.stderr.write("run.py: %s\n" % e)
        sys.exit(1)
