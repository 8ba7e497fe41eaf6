#!/usr/bin/env bash
# Ten alternating parent/child pairs of one bench/e2e workload, and the
# verdict bench/e2e/README.md's "Landing a change" rule gives them.
#
#   bench/pairs.sh <parent-rev> <workload> [--metric cpu_s] [--pairs 10] [--seed 1]
#
# The parent is `git archive`d into "${TMPDIR:-/tmp}/apor-pairs-<commit>"
# (kept, so the next workload reuses its build); the child is the working
# tree as it is, built into that directory too. Nothing in the working tree
# is written. Each run is `--seconds 15`, as BENCHMARK.json has it, and
# the metric is read from the last line of standard output: with
# `--trace 0` for an end-to-end metric, and with `--trace 1` for a
# per-layer one (such as netsim.self_ns_per_event), which only a traced
# run reports. Odd pairs run the parent first, even pairs the child.
#
# Verdict: a gain needs the child better in at least nine pairs in ten
# (ties count for neither side) AND a median gap wider than the parent's
# quartile distance. Against an end-to-end metric's BENCHMARK.json bound
# the child's median is `within` or `worse`; `unresolved` when the
# parent's own quartile spread exceeds the bound and not every child run
# beats every parent run. A per-layer metric has no bound, so it gets no
# bound verdict.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> [--metric cpu_s] [--pairs 10] [--seed 1]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
metric=cpu_s pairs=10 seed=1
while [ $# -gt 0 ]; do
    case $1 in
    --metric) metric=${2:?}; shift 2 ;;
    --pairs) pairs=${2:?}; shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    *) usage ;;
    esac
done
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

repo=$(git rev-parse --show-toplevel)
commit=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
work="${TMPDIR:-/tmp}/apor-pairs-$commit"
if [ ! -d "$work/parent" ]; then
    mkdir -p "$work/parent.partial"
    git -C "$repo" archive "$commit" | tar -x -C "$work/parent.partial"
    mv "$work/parent.partial" "$work/parent"
fi

build() { # <source root> <target dir> → path of the binary
    cargo build --release --offline --locked --quiet \
        --manifest-path "$1/bench/e2e/Cargo.toml" --target-dir "$2" >&2
    echo "$2/release/e2e"
}
echo "building parent ${commit:0:12} and the working tree ..." >&2
parent_bin=$(build "$work/parent" "$work/parent-target")
child_bin=$(build "$repo" "$work/child-target")

spec=$(jq -c --arg m "$metric" \
    '[(.end_to_end[] | .trace = 0), (.per_layer[] | .trace = 1)] | map(select(.name == $m)) | .[0]' \
    "$repo/BENCHMARK.json")
[ "$spec" != null ] || { echo "$0: no metric $metric in BENCHMARK.json" >&2; exit 2; }
better=$(jq -r '.better' <<<"$spec")
bound=$(jq -r 'if .trace == 0 then .bound // empty else empty end' <<<"$spec")
trace=$(jq -r '.trace' <<<"$spec")

# `run` is called in a subshell: it reports a steal-tainted run by file.
unresolved_log=$(mktemp)
trap 'rm -f "$unresolved_log"' EXIT
run() { # <source root> <binary> → the metric's value
    local err line
    err=$(mktemp)
    line=$(cd "$1" && "$2" --workload "$workload" --seed "$seed" --seconds 15 --trace "$trace" 2>"$err" | tail -1)
    if grep -q "unresolved:" "$err"; then echo >>"$unresolved_log"; fi
    rm -f "$err"
    [ "$(jq -r '.correct' <<<"$line")" = true ] || { echo "$0: a run failed its checks" >&2; exit 1; }
    jq -r --arg m "$metric" '.metrics[$m].value' <<<"$line"
}

parent_vals=() child_vals=()
printf '%-5s %-7s %14s %14s\n' pair first parent child
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        p=$(run "$work/parent" "$parent_bin"); c=$(run "$repo" "$child_bin"); first=parent
    else
        c=$(run "$repo" "$child_bin"); p=$(run "$work/parent" "$parent_bin"); first=child
    fi
    parent_vals+=("$p") child_vals+=("$c")
    printf '%-5s %-7s %14.6g %14.6g\n' "$i" "$first" "$p" "$c"
done

# Everything numeric from here on is one awk program over the two columns.
paste <(printf '%s\n' "${parent_vals[@]}") <(printf '%s\n' "${child_vals[@]}") | awk \
    -v better="$better" -v bound="$bound" -v metric="$metric" -v workload="$workload" \
    -v unresolved_runs="$(wc -l <"$unresolved_log")" '
function quantile(v, n, q,    h, lo) { # linear interpolation on a sorted 1-based array
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
}
{ n++; p[n] = $1; c[n] = $2
  if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) wins++ }
END {
    for (i = 1; i <= n; i++) { ps[i] = p[i]; cs[i] = c[i] }
    sort(ps, n); sort(cs, n)
    pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
    iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
    gap = better == "lower" ? pm - cm : cm - pm
    printf "%s %s (%s is better), %d pairs\n", workload, metric, better, n
    printf "parent median %.6g  quartiles %.6g..%.6g  quartile distance %.6g\n", pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75), iqr
    printf "child  median %.6g  quartiles %.6g..%.6g\n", cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75)
    printf "child better in %d of %d pairs; child median better by %.6g (%+.2f%%)\n", wins, n, gap, pm ? 100 * gap / pm : 0
    if (unresolved_runs > 0) printf "runs the benchmark called unresolved (steal): %d\n", unresolved_runs
    gain = wins * 10 >= n * 9 && gap > iqr
    printf "gain: %s\n", gain ? "yes" : "no"
    if (bound != "") {
        all_better = better == "lower" ? cs[n] < ps[1] : cs[1] > ps[n]
        worse = -gap > bound * pm
        if (pm && iqr / pm > bound && !all_better) verdict = "unresolved"
        else verdict = worse ? "worse" : "within"
        printf "bound %.0f%%: %s\n", 100 * bound, verdict
    }
}'
