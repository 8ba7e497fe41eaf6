#!/usr/bin/env bash
# The end-to-end benchmark's own checks over many seeds: every workload
# at every seed from A to B, one short run each.
#
#   bench/seeds.sh <A> <B>
#
# Builds bench/e2e from this checkout (into $CARGO_TARGET_DIR, or
# bench/e2e/target) and runs it as `--workload W --seed S --seconds 0
# --trace 0`: the least run the benchmark makes, two repetitions, whose
# outcomes must agree. One line per run: workload, seed, `correct`,
# failed route queries, `coverage`, `mean_stretch` and
# `ctrl_bytes_per_node_s`, the last three as the run printed them.
# Everything on a line is exact at a fixed seed, so two trees that route
# alike print the same lines; `diff` them.
#
# Exit status: 1 when any run reports `"correct": false` or failed route
# queries (or prints no result line), 2 on a usage error.
set -euo pipefail

usage() {
    echo "usage: $0 <first-seed> <last-seed>" >&2
    exit 2
}
[ $# -eq 2 ] || usage
[[ $1 =~ ^[0-9]+$ && $2 =~ ^[0-9]+$ ]] || usage
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
cargo build --release --offline --locked --quiet --manifest-path "$root/bench/e2e/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$root/bench/e2e/target}/release/e2e"

bad=0
printf '%-15s %5s %-7s %6s %9s %19s %22s\n' workload seed correct failed coverage mean_stretch ctrl_bytes_per_node_s
for workload in ron-196 scale-512 swim-churn-256 fabric-1024; do
    for seed in $(seq "$1" "$2"); do
        line=$(cd "$root" && "$bin" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 2>/dev/null | tail -1) || true
        jq -e .metrics <<<"$line" >/dev/null 2>&1 || line='{"correct": false, "failed": -1, "metrics": {}}'
        if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null; then
            echo "$0: $workload seed $seed failed its checks" >&2
            bad=1
        fi
        jq -r --arg w "$workload" --arg s "$seed" \
            '[$w, $s, .correct, .failed] + ([.metrics[("coverage", "mean_stretch", "ctrl_bytes_per_node_s")].value] | map(. // "-")) | @tsv' <<<"$line" |
            awk -F'\t' '{ printf "%-15s %5s %-7s %6s %9s %19s %22s\n", $1, $2, $3, $4, $5, $6, $7 }'
    done
done
exit "$bad"
