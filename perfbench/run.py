#!/usr/bin/env python3
"""Build and run the repo benchmark, or compare two sets of its results.

Run a workload (from the repository root):

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

builds the daemon and the benchmark with dune, runs the workload, and
ends stdout with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  Each run also writes .perfbench/results/<workload>-seed<N>-
trace<T>.json.

Compare two sets of result files (for example a parent and a change):

    python3 perfbench/run.py compare DIR_A DIR_B

prints, per workload and end-to-end metric, each side's median and
quartiles and whether B is worse than A by more than the metric's
bound in BENCHMARK.json.  A run that was not correct is named and left
out, and makes compare exit non-zero like a regression does.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = "_build/default/perfbench/qcxbench.exe"
TARGETS = ["./perfbench/qcxbench.exe", "./bin/qcx_serve.exe"]
RUN_TIMEOUT = 175


def build():
    if not os.path.exists("dune-project"):
        sys.exit("run.py: no dune-project here; run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(["dune", "build", "--root", ".", *TARGETS], env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def reap(group):
    """Kill whatever is left of the run's process group and wait for it to go."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args):
    build()
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        reap(proc.pid)
        proc.wait()
        sys.exit("run.py: benchmark run timed out")
    finally:
        reap(proc.pid)
    if proc.returncode != 0 or not out.strip():
        sys.exit(f"run.py: benchmark exited with {proc.returncode}")
    sys.stdout.write(out)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(directory):
    """End-to-end results per workload, and the files of runs that were not correct."""
    runs, invalid = {}, []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("trace") != 0:
            continue
        if r.get("correct") is not True:
            invalid.append(path)
        else:
            runs.setdefault(r["workload"], []).append(r)
    return runs, invalid


def compare(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    (a, bad_a), (b, bad_b) = load(args.a), load(args.b)
    for path in bad_a + bad_b:
        print(f"INVALID: {path} is not a correct run; left out of the comparison")
    fmt = "{:<14} {:<18} {:>30} {:>30} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                     "change", "bound", "verdict"))
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:<14} missing results on {'A' if name not in a else 'B'}")
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[name]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[name]]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            regress = change if m["better"] == "lower" else -change
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if regress > m["bound"]:
                verdict = "WORSE beyond bound"
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved (A spread {:.1%} > bound)".format(spread)
            else:
                verdict = "within bound"
            cell = "{:.4g} [{:.4g}, {:.4g}]"
            print(fmt.format(name, m["name"], cell.format(qa[1], qa[0], qa[2]),
                             cell.format(qb[1], qb[0], qb[2]), "{:+.1%}".format(change),
                             "{:.0%}".format(m["bound"]), verdict))
    return 1 if worse or bad_a or bad_b else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="directory of result files (baseline)")
        p.add_argument("b", help="directory of result files (candidate)")
        sys.exit(compare(p.parse_args(sys.argv[2:])))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=["serve-hot", "serve-cold", "characterize"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run(p.parse_args())


if __name__ == "__main__":
    main()
