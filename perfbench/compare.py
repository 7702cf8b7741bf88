#!/usr/bin/env python3
"""Collect benchmark runs and apply the comparison rule to them.

    python3 perfbench/compare.py collect --seeds 1-10 --out RUNS.jsonl [--workloads a,b]
    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py diff PARENT.jsonl CHANGE.jsonl

`collect` runs `run.py --trace 0` once per (workload, seed), with
BENCHMARK.json's `run_seconds`, and appends one JSON line per run.
`spread` prints, per workload and end-to-end metric, the median and the
distance between the first and third quartiles as a share of the median,
and marks spreads wider than a third of the metric's bound. `diff` flags
every (workload, metric) whose change median is worse than the parent
median by more than the metric's bound, and reports as unresolved those
whose parent spread is wider than the bound, unless every change run reads
better than every parent run. It exits 1 when anything is flagged.
Run from the root of a checkout.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root="."):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    """{workload: [run record]} from a JSONL file written by `collect`."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def values(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def spread(vals):
    """Interquartile distance as a share of the median."""
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(statistics.median(vals))


def worse_by(better, parent, change):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def compare(spec, parent, change):
    """(flagged, unresolved): lists of (workload, metric, parent median,
    change median, worse-by share) for every workload in both sets."""
    flagged, unresolved = [], []
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = values(parent[workload], m["name"])
            c = values(change[workload], m["name"])
            pm, cm = statistics.median(p), statistics.median(c)
            row = (workload, m["name"], pm, cm, worse_by(m["better"], pm, cm))
            if row[4] > m["bound"]:
                flagged.append(row)
            elif len(p) >= 2 and spread(p) > m["bound"]:
                all_better = all(worse_by(m["better"], x, y) < 0 for x in p for y in c)
                if not all_better:
                    unresolved.append(row)
    return flagged, unresolved


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(args):
    spec = load_spec()
    opts = dict(zip(args[::2], args[1::2]))
    workloads = opts.get("--workloads")
    workloads = workloads.split(",") if workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    out = opts["--out"]
    for seed in seeds:
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit code {res.returncode}", file=sys.stderr)
                return 1
            result = json.loads(res.stdout.strip().splitlines()[-1])
            with open(out, "a") as f:
                rec = {"workload": workload, "seed": seed, "seconds": spec["run_seconds"],
                       "result": result}
                f.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: {result['attempted']} attempted, "
                  f"{result['failed']} failed", file=sys.stderr)
    return 0


def print_spread(path):
    spec = load_spec()
    runs = load_runs(path)
    wide = 0
    for workload, rs in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in rs)
        attempted = sum(r["result"]["attempted"] for r in rs)
        print(f"{workload}: {len(rs)} runs, {failed}/{attempted} repetitions failed")
        for m in spec["end_to_end"]:
            v = values(rs, m["name"])
            s = spread(v) if len(v) >= 2 else 0.0
            mark = ""
            if m["name"] != "setup_s" and s > m["bound"] / 3:
                mark = "  <-- wider than a third of the bound"
                wide += 1
            print(f"  {m['name']:18s} median {statistics.median(v):>14.6g} {m['unit']:5s} "
                  f"spread {s:.4f} (bound {m['bound']}){mark}")
    return 1 if wide else 0


def print_diff(parent_path, change_path):
    spec = load_spec()
    flagged, unresolved = compare(spec, load_runs(parent_path), load_runs(change_path))
    for label, rows in (("WORSE", flagged), ("UNRESOLVED", unresolved)):
        for w, name, pm, cm, worse in rows:
            print(f"{label:10s} {w:16s} {name:18s} parent {pm:.6g} change {cm:.6g} "
                  f"worse by {100 * worse:.1f}%")
    if not flagged and not unresolved:
        print("no end-to-end metric is worse than its bound")
    return 1 if flagged or unresolved else 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        return collect(argv[1:])
    if len(argv) == 2 and argv[0] == "spread":
        return print_spread(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return print_diff(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
