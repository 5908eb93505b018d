#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py <workload> [--seeds 1-10] [--seconds N] [--out runs.json]

Runs perfbench/run.py once per seed (untraced), then prints, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
from statistics.quantiles(values, n=4), against the metric's bound in
BENCHMARK.json. A spread above bound/3 is flagged as unsteady. With --base
runs.json from an earlier call, also prints how far this set's median moved
from that set's. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    p.add_argument("--base")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        t0 = time.time()
        out = subprocess.run(bench["command"] + ["--workload", args.workload,
                             "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", "0"], cwd=ROOT, capture_output=True,
                             text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": time.time() - t0, **res})
        print(f"seed {seed}: {time.time() - t0:.1f} s correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    base = None
    if args.base:
        with open(args.base) as f:
            base = json.load(f)
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else (
            "UNSTEADY" if spread < m["bound"] else "OVER BOUND")
        line = (f"{m['name']:18s} median {med:12.6g} {m['unit']:5s} "
                f"spread {spread:6.3f} bound {m['bound']:.2f} {flag}")
        if base:
            bmed = statistics.median(r["metrics"][m["name"]]["value"] for r in base)
            worse = (med - bmed) / bmed if m["better"] == "lower" else (bmed - med) / bmed
            line += f"  vs base {worse:+.3f}" + (" WORSE" if worse > m["bound"] else "")
        print(line)


if __name__ == "__main__":
    main()
