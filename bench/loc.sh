#!/usr/bin/env bash
# Non-test Rust lines per crate: each crates/*/src/**/*.rs counted up to
# its first `#[cfg(test)]` line (at any indentation), so unit tests at
# the bottom of a file do not count.
#
#   bench/loc.sh [<rev>]
#
# Without a revision it prints the working tree's count per crate and the
# total. With one, it also counts a `git archive` of that revision,
# unpacked into a temporary directory that is removed on exit, and prints
# both counts and the delta per crate. Nothing in the working tree is
# written.
set -euo pipefail

[ $# -le 1 ] || { echo "usage: $0 [<rev>]" >&2; exit 2; }
repo=$(git rev-parse --show-toplevel)

count() { # <root> → one "<crate> <lines>" line per crate
    local src
    for src in "$1"/crates/*/src; do
        find "$src" -name '*.rs' -exec awk '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { n++ }
            END { print n + 0 }' {} + |
            awk -v crate="$(basename "$(dirname "$src")")" '{ s += $1 } END { print crate, s + 0 }'
    done
}

if [ $# -eq 0 ]; then
    count "$repo" | awk '
        BEGIN { printf "%-12s %8s\n", "crate", "lines" }
        { printf "%-12s %8d\n", $1, $2; total += $2 }
        END { printf "%-12s %8d\n", "total", total }'
    exit 0
fi

commit=$(git -C "$repo" rev-parse --verify "$1^{commit}")
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git -C "$repo" archive "$commit" crates | tar -x -C "$old"
{
    count "$old" | sed 's/^/old /'
    count "$repo" | sed 's/^/new /'
} | awk -v rev="${commit:0:12}" '
    { lines[$1, $2] = $3; if (!($2 in seen)) { seen[$2] = 1; order[++n] = $2 } }
    END {
        printf "%-12s %12s %12s %8s\n", "crate", rev, "working", "delta"
        for (i = 1; i <= n; i++) {
            c = order[i]; a = lines["old", c] + 0; b = lines["new", c] + 0
            printf "%-12s %12d %12d %+8d\n", c, a, b, b - a
            ta += a; tb += b
        }
        printf "%-12s %12d %12d %+8d\n", "total", ta, tb, tb - ta
    }'
