#!/usr/bin/env python3
"""Compare perfbench records of two builds.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [NEW2.json ...]

Each file is a record the benchmark writes under <build dir>/records/.
Records of one side must share workload and trace mode; each side's metric
is the median over its records. The compare refuses (exit 2) to diff records
whose pool thread counts differ, since a time at 1 thread says nothing about
one at 4. For every end-to-end metric it prints the change in the metric's
bad direction against its bound from BENCHMARK.json, and exits 1 when one
is worse than its bound.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    recs = []
    for p in paths:
        with open(p) as f:
            recs.append(json.load(f))
    return recs


def refuse(msg):
    print(f"compare: refused: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        sys.exit(__doc__)
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    recs = base + new
    threads = {r["threads"] for r in recs}
    if len(threads) != 1:
        refuse(f"records ran at different pool thread counts {sorted(threads)}")
    for key in ("workload", "trace"):
        vals = {r[key] for r in recs}
        if len(vals) != 1:
            refuse(f"records differ in {key}: {sorted(map(str, vals))}")
    for side, rs in (("base", base), ("new", new)):
        if not all(r["correct"] for r in rs):
            print(f"compare: warning: a {side} record is not correct", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    regressed = False
    names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in recs)]
    for name in names:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        unit = base[0]["metrics"][name]["unit"]
        m = spec.get(name, {})
        line = f"{name:28s} {b:14.6g} -> {n:14.6g} {unit:8s}"
        if b != 0 and "better" in m:
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            line += f" worse by {worse:+.3f}"
            if "bound" in m:
                line += f" (bound {m['bound']:.2f})"
                if worse > m["bound"]:
                    line += " REGRESSED"
                    regressed = True
        print(line)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
