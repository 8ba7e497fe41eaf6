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
# whose two runs of one build agree is compared exactly: it is printed
# when the working tree's value is not the parent's to the last digit. A
# metric whose two runs of one build differ is wall-clock when its
# BENCHMARK.json unit is a time or a ratio (a time, a rate over one, a
# share of one), or when BENCHMARK.json does not declare it, and is left
# out. Any other such metric is a figure that depends on how many
# repetitions fit the run (`peak_heap_mb` can move by ~1.5 kB) and is
# compared by range: it is printed, as `low..high` on each side, when
# the two sides' ranges do not overlap. A printed metric shows how far
# it moved, `(working - parent) / parent` in %, from the midpoints of a
# range. An end-to-end metric also gets a verdict against its
# BENCHMARK.json entry: `better` when it moved its `better` way,
# `within` when it moved the other way by no more than its `bound`,
# `worse` beyond that. The counts of compared (of them, by range),
# wall-clock and differing metrics close each block. Nothing in the
# working tree is written.
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

# name → {better, bound} of every end-to-end metric; name → unit of every metric.
e2e=$(jq -c '[.end_to_end[] | {key: .name, value: .}] | from_entries' "$repo/BENCHMARK.json")
units=$(jq -c '[(.end_to_end[], .per_layer[]) | {key: .name, value: .unit}] | from_entries' "$repo/BENCHMARK.json")

bad=0
printf '%-15s %-5s %-36s %20s %20s %9s %s\n' workload trace metric parent working change verdict
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
        jq -rn --argjson a "$first" --argjson b "$again" --argjson c "$child" --argjson d "$child_again" \
            --argjson e2e "$e2e" --argjson units "$units" '
            def v($r; $k): $r.metrics[$k].value;
            def verdict($spec; $p; $w):
                if $spec == null then ""
                elif (if $spec.better == "lower" then $w < $p else $w > $p end) then "better"
                elif $p != 0 and (($w - $p) / $p | if . < 0 then -. else . end) <= $spec.bound then "within"
                else "worse" end;
            def clock($k): $units[$k] | . == null or IN("s", "ms", "us", "ns", "ratio");
            def line($k; $p; $w; $ps; $ws):
                "diff\t\($k)\t\($ps)\t\($ws)\t\(if $p != 0 then ($w - $p) / $p else "" end)\t\(verdict($e2e[$k]; $p; $w))";
            ($a.metrics | keys_unsorted) as $keys
            | [$keys[] | select(v($a; .) != v($b; .) or v($c; .) != v($d; .))] as $spread
            | [$spread[] | select(clock(.))] as $wall
            | [$spread[] | select(clock(.) | not)] as $ranged
            | [$keys[] | select(v($a; .) == v($b; .) and v($c; .) == v($d; .) and v($a; .) != v($c; .))] as $diff
            | [$ranged[] | [v($a; .), v($b; .)] as $p | [v($c; .), v($d; .)] as $w
                | select(($p | max) < ($w | min) or ($w | max) < ($p | min))] as $moved
            | ($diff[] | line(.; v($a; .); v($c; .); v($a; .); v($c; .))),
              ($moved[] | [v($a; .), v($b; .)] as $p | [v($c; .), v($d; .)] as $w
                | line(.; ($p | add / 2); ($w | add / 2); "\($p | min)..\($p | max)"; "\($w | min)..\($w | max)")),
              "sum\t\($keys | length - ($wall | length))\t\($ranged | length)\t\($wall | length)\t\($diff + $moved | length)"' |
            awk -F'\t' -v w="$workload" -v t="$trace" '
                $1 == "diff" {
                    change = $5 == "" ? "n/a" : sprintf("%+.2f%%", 100 * $5)
                    printf "%-15s %-5s %-36s %20s %20s %9s %s\n", w, t, $2, $3, $4, change, $6
                }
                $1 == "sum" { printf "%s --trace %s: %d compared (%d by range), %d wall-clock, %d differ\n", w, t, $2, $3, $4, $5 }'
    done
done
exit "$bad"
