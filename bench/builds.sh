# Sourced by bench/pairs.sh and bench/exact.sh with `rev` set: builds the
# bench/e2e binary of that revision and of the working tree.
#
# The revision is `git archive`d into "${TMPDIR:-/tmp}/apor-pairs-<commit>"
# (kept, so the next call reuses its build); the working tree is built into
# that directory too. Sets `repo`, `commit`, `work`, `parent_bin` and
# `child_bin`. Nothing in the working tree is written.

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
