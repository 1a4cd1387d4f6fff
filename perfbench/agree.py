#!/usr/bin/env python3
"""Run two sets of benchmark runs and report whether they agree.

    python3 perfbench/agree.py [--runs 10] [--workloads a,b] [--trace]

For each workload, set A runs with seeds 1..R and set B with seeds
1001..1000+R (each run a fresh process through perfbench/run.py). Per
end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median of each
set, and the change of B's median against A's (positive = worse). A metric
agrees when both spreads stay within its bound from BENCHMARK.json and B's
median lies within the bound of A's in either direction; the share of
failed operations must be exactly the same in every run of both sets.
Exit code 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        raise RuntimeError("%s seed %d: correctness check failed" % (workload, seed))
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true",
                    help="one traced run per workload afterwards (trace overhead)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for name in names:
        sets = []
        for base in (0, 1000):
            runs = [run_once(name, base + i + 1, bench["run_seconds"], False)
                    for i in range(args.runs)]
            sets.append(runs)
        print("== %s (%d + %d runs)" % (name, args.runs, args.runs))
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        exact = [{r["failed"] * sets[0][0]["attempted"] == sets[0][0]["failed"] * r["attempted"]
                  for r in s} for s in sets]
        same_share = exact[0] == {True} and exact[1] == {True}
        print("  failed share: A %.6f  B %.6f  %s" % (shares[0], shares[1],
                                                     "same" if same_share else "DIFFERS"))
        ok &= same_share
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in sets[0]]
            b = [r["metrics"][m["name"]]["value"] for r in sets[1]]
            qa, qb = summary(a), summary(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if m["better"] == "higher":
                worse = -worse
            spread_ok = qa[3] <= m["bound"] and qb[3] <= m["bound"]
            agree = spread_ok and abs(worse) <= m["bound"]
            ok &= agree
            print("  %-22s A med %-12.6g [%.6g, %.6g] spread %.3f | B med %-12.6g "
                  "[%.6g, %.6g] spread %.3f | worse %+.3f bound %.2f  %s"
                  % (m["name"], qa[1], qa[0], qa[2], qa[3], qb[1], qb[0], qb[2], qb[3],
                     worse, m["bound"], "agree" if agree else "DISAGREE"))
        if args.trace:
            traced = run_once(name, 1, bench["run_seconds"], True)
            print("  traced run: %d per-layer metrics, attempted %d, failed %d"
                  % (len(traced["metrics"]), traced["attempted"], traced["failed"]))
        sys.stdout.flush()
    print("ALL AGREE" if ok else "SOME DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
