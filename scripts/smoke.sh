#!/usr/bin/env bash
# scripts/smoke.sh — the CI smoke matrix, one table driving every
# end-to-end determinism smoke.
#
# Usage:
#   scripts/smoke.sh all                  # run every row in table order
#   scripts/smoke.sh <scenario> [scale]   # run one row, optionally rescaled
#
# Each row runs the release `experiments` binary end to end; the
# scenarios gate themselves (shard/dispatcher invariance, per-class QoE
# ordering, kill/resume bit-equivalence, LSQ-beats-static-hash), so this
# script only routes the invocation — a red row is a real property
# violation, not a flaky threshold.

set -euo pipefail
cd "$(dirname "$0")/.."

# The smoke matrix. Columns: scenario, experiment id, default scale,
# extra CLI flags. `@resume` marks the one row that is a shell recipe
# (run/kill/resume + CSV diff) rather than a single experiment
# invocation.
SMOKE_TABLE='
flashcrowd         flashcrowd  0.01
population         population  0.01  --days 2
fairness           fairness    0.01
checkpoint         checkpoint  0.05
dispatch           dispatch    0.02
population-resume  @resume     0.01
'

rows() {
    printf '%s\n' "$SMOKE_TABLE" | sed -e 's/#.*//' -e '/^[[:space:]]*$/d'
}

usage() {
    echo "usage: scripts/smoke.sh all | <scenario> [scale]" >&2
    echo "scenarios:" >&2
    rows | awk '{printf "  %s\n", $1}' >&2
}

# Population kill/resume smoke (CSV fingerprint diff). End-to-end
# through the CLI flags: run population straight, run it again killed at
# the barrier after epoch 1 (leaving a checkpoint manifest + binary-log
# state), resume to completion, and diff every series CSV against the
# straight run. headline.csv is excluded — it carries wall-clock
# throughput, which is not deterministic; every simulated series must
# match byte for byte.
run_resume() {
    local scale="$1"
    cargo build --release --locked -p lingxi-exp --bin experiments
    local bin=target/release/experiments
    local straight resumed state scratch
    straight=$(mktemp -d)
    resumed=$(mktemp -d)
    state=$(mktemp -d)
    scratch=$(mktemp -d)
    "$bin" population --seed 7 --scale "$scale" --days 2 --out "$straight"
    "$bin" population --seed 7 --scale "$scale" --days 2 \
        --state-dir "$state" --checkpoint-every 1 --stop-after-epochs 1 --out "$scratch"
    "$bin" population --seed 7 --scale "$scale" --days 2 \
        --state-dir "$state" --resume --out "$resumed"
    local f base
    for f in "$straight"/population/*.csv; do
        base=$(basename "$f")
        if [ "$base" = headline.csv ]; then
            continue
        fi
        diff -u "$f" "$resumed/population/$base"
    done
    rm -rf "$straight" "$resumed" "$state" "$scratch"
}

run_row() {
    local name="$1" scale_override="${2:-}"
    local row
    row=$(rows | awk -v n="$name" '$1 == n')
    if [ -z "$row" ]; then
        echo "smoke.sh: unknown scenario '$name'" >&2
        usage
        exit 2
    fi
    local _n exp scale extra
    read -r _n exp scale extra <<<"$row"
    if [ -n "$scale_override" ]; then
        scale="$scale_override"
    fi
    echo ">>> smoke: $name (experiment $exp, scale $scale)"
    if [ "$exp" = "@resume" ]; then
        run_resume "$scale"
        return
    fi
    # $extra is a whitespace-separated flag list by design.
    # shellcheck disable=SC2086
    cargo run --release --locked -p lingxi-exp --bin experiments -- \
        "$exp" --scale "$scale" $extra
}

case "${1:-}" in
"" | -h | --help)
    usage
    exit 2
    ;;
all)
    # Build once up front so every row shares one binary and the log
    # attributes compile time to the build, not the first row.
    cargo build --release --locked -p lingxi-exp --bin experiments
    for name in $(rows | awk '{print $1}'); do
        run_row "$name"
    done
    echo ">>> smoke: all rows green"
    ;;
*)
    run_row "$1" "${2:-}"
    ;;
esac
