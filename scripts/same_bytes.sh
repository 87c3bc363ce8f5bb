#!/usr/bin/env bash
# Same bytes before and after: exports <base-ref> into a temporary
# directory, builds it and the working tree --release, runs the five probes
# and five figures at the quick size on each, and compares every JSON/TSV
# pair byte for byte; a pair that differs is shown as the first 20 lines of
# its diff. This is the acceptance a behaviour-preserving change
# has to pass (ROADMAP items 3 and 4).
#
# A change that moves the virtual clock on purpose states its blast radius:
# every artifact named after --moved (as the comparison prints it, e.g.
# BENCH_readpath.json or results/fig19.tsv) must differ, every other one must
# still be identical — a named file that did not move fails like an unnamed
# one that did.
#
#   scripts/same_bytes.sh <base-ref> [--moved <artifact>...]
set -euo pipefail
usage() { echo "usage: scripts/same_bytes.sh <base-ref> [--moved <artifact>...]" >&2; exit 2; }
[[ $# -ge 1 && $1 != --* ]] || usage
base_ref=$1
shift
moved=()
if [[ $# -gt 0 ]]; then
    [[ $1 == --moved && $# -ge 2 ]] || usage
    moved=("${@:2}")
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
figures=(fig03 fig18 fig19 stalls integrity)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# A plain export of the base tree: no worktree state to clean up in .git.
mkdir "$work/tree"
git -C "$repo" archive "$base_ref" | tar -x -C "$work/tree"

# Same pinning as check.sh: one CPU.
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
artifacts=$(cd "$work/base" && ls *.json results/*.tsv)
for f in "${moved[@]}"; do
    grep -qxF "$f" <<<"$artifacts" || { echo "UNKNOWN $f (named after --moved, not an artifact)"; status=1; }
done
for f in $artifacts; do
    expected=same
    [[ " ${moved[*]} " == *" $f "* ]] && expected=moved
    if cmp -s "$work/base/$f" "$work/change/$f"; then
        echo "same    $f"
        [[ $expected == same ]] || { echo "        named after --moved, but it did not move"; status=1; }
    elif [[ $expected == moved ]]; then
        echo "moved   $f"
        diff "$work/base/$f" "$work/change/$f" | head -20 || true
    else
        echo "DIFFERS $f"
        diff "$work/base/$f" "$work/change/$f" | head -20 || true
        status=1
    fi
done
if [[ $status != 0 ]]; then
    echo "==> NOT as stated against $base_ref"
elif [[ ${#moved[@]} == 0 ]]; then
    echo "==> byte-identical to $base_ref"
else
    echo "==> ${#moved[@]} moved as stated, the rest byte-identical to $base_ref"
fi
exit $status
