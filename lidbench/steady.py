#!/usr/bin/env python3
"""Steadiness of the benchmark: run workloads repeatedly, one seed per run,
and print each metric's median and quartile spread.

    python3 lidbench/steady.py [--runs N] [--seconds S] [--workload NAME ...]

Run from the root of the repository.  Run i has seed i (1..N) and
reports the end-to-end metrics (--trace 0).  The spread of a metric is
the distance between the first and third quartile of its values
(Python's statistics.quantiles(values, n=4)) as a share of their median;
the end-to-end bounds in BENCHMARK.json are set from it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "lidbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        results = [run_once(w, seed, args.seconds)
                   for seed in range(1, args.runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, correct %s, failed share %s" % (
            w, len(results), all(r["correct"] for r in results),
            ", ".join("%.6f" % s for s in shares)))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) >= 2 and statistics.median(values):
                med, s = spread(values)
                bound = bounds.get(name)
                note = "" if bound is None else "  (bound %.2f, %.2f of it)" % (
                    bound, s / bound)
                print("  %-24s median %-14.6g %-6s spread %.4f%s" % (
                    name, med, unit, s, note))
            else:
                print("  %-24s values %s %s" % (name, values, unit))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
