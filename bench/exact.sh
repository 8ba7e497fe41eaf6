#!/usr/bin/env bash
# Every metric of bench/e2e that is not wall-clock, compared exactly
# between a parent revision and the working tree, on all four workloads.
#
#   bench/exact.sh <parent-rev> [--seed 1]
#
# Both binaries are built by bench/builds.sh, as for bench/pairs.sh, so
# either script reuses the other's builds. Each workload runs at
# `--trace 0` (end-to-end metrics) and `--trace 1` (per-layer ones), for
# `--seconds 15` as BENCHMARK.json has it, twice on each side. A metric
# whose two runs of one build differ is wall-clock — a time, a rate over
# one, a share of one, or a figure that depends on how many repetitions
# fit the run (`peak_heap_mb` can) — and is left out; every other metric
# is printed when the working tree's value is not the parent's to the last
# digit. The counts of compared, wall-clock and differing metrics close
# each block. Nothing in the working tree is written.
#
# Exit status: 1 when any run reports `"correct": false` or failed route
# queries, 2 on a usage error. A difference alone exits 0: this is a
# report, not a gate.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> [--seed 1]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
seed=1
while [ $# -gt 0 ]; do
    case $1 in
    --seed) seed=${2:?}; shift 2 ;;
    *) usage ;;
    esac
done
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

. "$(dirname "$0")/builds.sh"

run() { # <source root> <binary> <workload> <trace> → the result line
    local line
    line=$(cd "$1" && "$2" --workload "$3" --seed "$seed" --seconds 15 --trace "$4" 2>/dev/null | tail -1) || true
    jq -e .metrics <<<"$line" >/dev/null 2>&1 || line='{"correct": false, "failed": -1, "metrics": {}}'
    echo "$line"
}

bad=0
printf '%-15s %-5s %-36s %20s %20s\n' workload trace metric parent working
for workload in ron-196 scale-512 swim-churn-256 fabric-1024; do
    for trace in 0 1; do
        first=$(run "$work/parent" "$parent_bin" "$workload" "$trace")
        again=$(run "$work/parent" "$parent_bin" "$workload" "$trace")
        child=$(run "$repo" "$child_bin" "$workload" "$trace")
        child_again=$(run "$repo" "$child_bin" "$workload" "$trace")
        for line in "$first" "$again" "$child" "$child_again"; do
            if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null; then
                echo "$0: a $workload --trace $trace run failed its checks: $(jq -c '{correct, failed}' <<<"$line")" >&2
                bad=1
            fi
        done
        jq -rn --argjson a "$first" --argjson b "$again" --argjson c "$child" --argjson d "$child_again" '
            def v($r; $k): $r.metrics[$k].value;
            ($a.metrics | keys_unsorted) as $keys
            | [$keys[] | select(v($a; .) != v($b; .) or v($c; .) != v($d; .))] as $wall
            | [$keys[] | select(v($a; .) == v($b; .) and v($c; .) == v($d; .) and v($a; .) != v($c; .))] as $diff
            | ($diff[] | "diff\t\(.)\t\(v($a; .))\t\(v($c; .))"),
              "sum\t\($keys | length - ($wall | length))\t\($wall | length)\t\($diff | length)"' |
            awk -F'\t' -v w="$workload" -v t="$trace" '
                $1 == "diff" { printf "%-15s %-5s %-36s %20s %20s\n", w, t, $2, $3, $4 }
                $1 == "sum" { printf "%s --trace %s: %d compared, %d wall-clock, %d differ\n", w, t, $2, $3, $4 }'
    done
done
exit "$bad"
