#!/usr/bin/env bash
# Same bytes before and after: exports <base-ref> into a temporary
# directory, builds it and the working tree --release, runs the five probes
# and five figures at the quick size on each, and compares every JSON/TSV
# pair byte for byte; a pair that differs is shown as the first 20 lines of
# its diff. This is the acceptance a behaviour-preserving change
# has to pass (ROADMAP items 3 and 4).
#
#   scripts/same_bytes.sh <base-ref>
set -euo pipefail
[[ $# == 1 ]] || { echo "usage: scripts/same_bytes.sh <base-ref>" >&2; exit 2; }
base_ref=$1
repo=$(cd "$(dirname "$0")/.." && pwd)
figures=(fig03 fig18 fig19 stalls integrity)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# A plain export of the base tree: no worktree state to clean up in .git.
mkdir "$work/tree"
git -C "$repo" archive "$base_ref" | tar -x -C "$work/tree"

# Same pinning as check.sh: one CPU, so a sim hand-off is a context switch.
source "$repo/scripts/pin.sh"

build() {
    echo "==> build $1"
    (cd "$1" && env -u CARGO_TARGET_DIR cargo build -q --release --offline -p xlsm-bench)
}
build "$repo"
probes=($("$repo/target/release/xlsm-bench" list --probes))

# Writes the artifacts of the tree at $2 under $work/$1: the CLI writes
# BENCH_<probe>.json and results/*.tsv relative to the working directory.
run_side() {
    local side=$1 bin=$2/target/release started=$SECONDS
    mkdir -p "$work/$side"
    cd "$work/$side"
    "${pin[@]}" "$bin/xlsm-bench" --quick "${probes[@]}" "${figures[@]}" >/dev/null 2>&1
    cd "$repo"
    echo "    $side side: $((SECONDS - started)) s"
}

build "$work/tree"
run_side base "$work/tree"
run_side change "$repo"

status=0
for f in $(cd "$work/base" && ls *.json results/*.tsv); do
    if cmp -s "$work/base/$f" "$work/change/$f"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        diff "$work/base/$f" "$work/change/$f" | head -20 || true
        status=1
    fi
done
[[ $status == 0 ]] && echo "==> byte-identical to $base_ref" || echo "==> NOT byte-identical to $base_ref"
exit $status
