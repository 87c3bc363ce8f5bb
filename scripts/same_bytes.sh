#!/usr/bin/env bash
# Same bytes before and after: exports <base-ref> into a temporary
# directory, builds it and the working tree --release, runs the five probes
# (XLSM_QUICK=1) and four quick figures on each, and compares every
# JSON/TSV pair byte for byte. This is the acceptance a behaviour-preserving
# change has to pass (ROADMAP items 3 and 4).
#
#   scripts/same_bytes.sh <base-ref>
set -euo pipefail
[[ $# == 1 ]] || { echo "usage: scripts/same_bytes.sh <base-ref>" >&2; exit 2; }
base_ref=$1
repo=$(cd "$(dirname "$0")/.." && pwd)
probes=(parallelism writepath readpath stability space)
figures=(fig03 fig18 stalls integrity)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# A plain export of the base tree: no worktree state to clean up in .git.
mkdir "$work/tree"
git -C "$repo" archive "$base_ref" | tar -x -C "$work/tree"

# Same pinning as check.sh: one CPU, so a sim hand-off is a context switch.
pin=()
if command -v taskset >/dev/null; then
    cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)
    pin=(taskset -c "${cpus##*[,-]}")
fi

# Builds the tree at $2 and writes its artifacts under $work/$1. The
# figures bin writes results/*.tsv relative to its working directory.
run_side() {
    local side=$1 tree=$2 started=$SECONDS bin probe
    local target=$tree/target
    echo "==> $side: build $tree"
    (cd "$tree" && env -u CARGO_TARGET_DIR cargo build -q --release --offline -p xlsm-bench)
    mkdir -p "$work/$side"
    cd "$work/$side"
    for probe in "${probes[@]}"; do
        # Each side uses its own bin names: one CLI, or one bin per probe.
        if [[ -x $target/release/xlsm-bench ]]; then
            bin=("$target/release/xlsm-bench" "$probe")
        else
            bin=("$target/release/$probe")
        fi
        XLSM_QUICK=1 "${pin[@]}" "${bin[@]}" "$probe.json" >/dev/null 2>&1
    done
    "${pin[@]}" "$target/release/figures" --quick "${figures[@]}" >/dev/null 2>&1
    cd "$repo"
    echo "    $side side: $((SECONDS - started)) s"
}

run_side base "$work/tree"
run_side change "$repo"

status=0
for f in $(cd "$work/base" && ls *.json results/*.tsv); do
    if cmp -s "$work/base/$f" "$work/change/$f"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        status=1
    fi
done
[[ $status == 0 ]] && echo "==> byte-identical to $base_ref" || echo "==> NOT byte-identical to $base_ref"
exit $status
