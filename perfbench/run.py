#!/usr/bin/env python3
"""Benchmark runner for the LingXi workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the benchmark binary (the `perfbench` package, against the
checkout's crates), then runs the workload in child processes, one child
per repetition, until `--seconds` have passed. A run covers WORLDS
independent worlds, whose seeds `N * WORLDS + i` derive from `--seed`;
repetitions take the worlds in turn. Each repetition builds one world's
inputs from its seed, runs them through the crates' public APIs and checks
the outputs. The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
over all the worlds, each world's timings the median of its repetitions.
Times are scaled to a reference machine speed, which a fixed kernel
measures around every repetition. With `--trace 1`, untraced repetitions
are followed by one traced repetition of the first world. The metrics are
then the per-layer metrics, and a layer the workload does not run reports
0. Progress and a readable table go to stderr. The repetitions' own records
go to `.bench_out/reps_<workload>_<seed>.json`.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pod_alphafair", "population_week", "lingxi_lowbw")
# A repetition that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0
# Independent worlds per run. One world's cost and QoE depend on its seed
# by 10-30%, too much for a bound to hold across seeds; a run averages
# over several.
WORLDS = 4
# Time of the reference kernel (src/calib.rs) on an idle 2 GHz core of
# the machine the bounds were set on. Timings are reported at that speed.
KERNEL_REF_S = 0.1


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build(root):
    """Build the benchmark binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's output goes to stderr: stdout carries only the result line.
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if res.returncode != 0:
        die(f"build failed with exit code {res.returncode}", 1)
    return os.path.join(target, "release", "lingxi-perfbench")


def run_child(binary, workload, seed, state_dir, traced=False, spans=None):
    """One repetition in its own process.

    Returns (record, peak_rss_mb, error); `record` is the child's JSON line
    and the peak RSS is the child's own, read from its rusage at exit.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--dir", state_dir]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            proc.stdout.close()
            proc.stderr.close()
            return None, 0.0, f"repetition exceeded {CHILD_TIMEOUT_S:.0f} s"
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read().decode(errors="replace")
    err = proc.stderr.read().decode(errors="replace")
    proc.stdout.close()
    proc.stderr.close()
    # ru_maxrss is in KiB on Linux.
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        return None, rss_mb, f"exit code {proc.returncode}: {err.strip()[-400:]}"
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, rss_mb, f"unreadable output: {out[-200:]!r}"
    return record, rss_mb, None


def binary_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


class FirstRuns:
    """The fingerprint of the first run of each (binary, workload, seed)
    in this checkout, so a later run of the same program and seed that
    simulates anything differently fails."""

    def __init__(self, path, digest):
        self.path = path
        self.digest = digest
        try:
            with open(path) as f:
                self.table = json.load(f)
        except (OSError, ValueError):
            self.table = {}

    def check(self, workload, seed, fingerprint):
        key = f"{self.digest}:{workload}:{seed}"
        first = self.table.setdefault(key, fingerprint)
        with open(self.path, "w") as f:
            json.dump(self.table, f, indent=1, sort_keys=True)
        return first == fingerprint


def check_record(record, reference):
    """Failed output checks of one repetition against the first one."""
    problems = list(record.get("failures", []))
    for k, v in record.items():
        if isinstance(v, float) and not math.isfinite(v):
            problems.append(f"{k} is not finite")
    if reference is not None and record["fingerprint"] != reference["fingerprint"]:
        problems.append("simulated outputs differ from the first repetition of this seed")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def world_seeds(seed):
    return [(seed * WORLDS + i) % 2**64 for i in range(WORLDS)]


def slowdown(records):
    """How much slower than the reference speed the machine ran over a
    run: the median time of the kernel timed around each repetition,
    against the reference. A run-level median, because the drift it
    corrects is slow (minutes) and one kernel pass is itself noisy."""
    return median([r["kernel_s"] for r in records]) / KERNEL_REF_S


def end_to_end(worlds, rss):
    """The end-to-end metrics of a run. `worlds` holds each world's
    repetitions. A world's timings are the median over its repetitions;
    the run's are summed over the worlds and scaled to the reference
    machine speed. The simulated QoE is the session-weighted mean over the
    worlds."""
    firsts = [rs[0] for rs in worlds]
    slow = slowdown([r for rs in worlds for r in rs])
    sessions = sum(r["sessions"] for r in firsts)
    loop_s = sum(median([r["loop_s"] for r in rs]) for rs in worlds)
    setup_s = sum(median([r["setup_s"] for r in rs]) for rs in worlds)

    def qoe(key):
        return sum(r[key] * r["sessions"] for r in firsts) / sessions

    return {
        "sessions_per_s": sessions / loop_s * slow,
        "setup_s": setup_s / slow,
        "peak_rss_mb": median(rss),
        "state_mb": sum(r["state_bytes"] for r in firsts) / 1e6,
        "qoe_watch_s": qoe("qoe_watch_s"),
        "qoe_stall_s": qoe("qoe_stall_s"),
        "qoe_bitrate_kbps": qoe("qoe_bitrate_kbps"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 2**64:
        die("--seed must fit in 64 bits")

    root = os.getcwd()
    spec = load_spec(root)
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        die("run from the root of a LingXi checkout (no Cargo.toml and crates/ here)")
    binary = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    first_runs = FirstRuns(os.path.join(out_dir, "first_runs.json"), binary_digest(binary))
    state_dir = os.path.join(out_dir, f"state_{args.workload}_{os.getpid()}")

    seeds = world_seeds(args.seed)
    worlds = {seed: [] for seed in seeds}
    reference = {}
    rss, failed, attempted = [], 0, 0
    # Untraced repetitions: the whole budget, or half of it before the
    # traced repetition; every world runs at least once.
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.monotonic()
    while attempted < WORLDS or time.monotonic() - start < budget:
        seed = seeds[attempted % WORLDS]
        attempted += 1
        record, peak, error = run_child(binary, args.workload, seed, state_dir)
        problems = [error] if error else check_record(record, reference.get(seed))
        if record is not None and seed not in reference and not problems:
            reference[seed] = record
            if not first_runs.check(args.workload, seed, record["fingerprint"]):
                problems.append("simulated outputs differ from the first run of this seed")
        if problems:
            failed += 1
            print(f"perfbench: repetition {attempted} (seed {seed}) failed: {problems}",
                  file=sys.stderr)
            continue
        worlds[seed].append(record)
        rss.append(peak)

    with open(os.path.join(out_dir, f"reps_{args.workload}_{args.seed}.json"), "w") as f:
        json.dump({"worlds": {str(k): v for k, v in worlds.items()}, "peak_rss_mb": rss}, f)
    complete = all(worlds.values())

    metrics = {}
    if args.trace == 0:
        values = end_to_end(list(worlds.values()), rss) if complete else {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        attempted += 1
        seed = seeds[0]
        spans = os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.tsv")
        record, _, error = run_child(
            binary, args.workload, seed, state_dir, traced=True, spans=spans)
        problems = [error] if error else check_record(record, reference.get(seed))
        layers = {}
        if record is not None:
            layers = {k[len("layer:"):]: v for k, v in record.items() if k.startswith("layer:")}
            if worlds[seed]:
                untraced = median([r["timed_s"] for r in worlds[seed]]) / slowdown(worlds[seed])
                traced = record["traced_run_s"] / slowdown([record])
                layers["trace.overhead_s"] = traced - untraced
        if problems:
            failed += 1
            print(f"perfbench: traced repetition failed: {problems}", file=sys.stderr)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}

    shutil.rmtree(state_dir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {args.workload:16s} {name:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"  {attempted} attempted, {failed} failed", file=sys.stderr)
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
