#!/usr/bin/env bash
# Lines of Rust under `crates shims src tests examples`, split the way a
# simplicity target has to be set: goldens and reproductions are test lines,
# and counted with the code they hide what a change removed.
#
#   product      outside tests/, benches/, examples/ and above a file's first
#                top-level `#[cfg(test)]` that opens a `mod` (test modules
#                sit at the end of their file; a `#[cfg(test)]` helper
#                outside one counts as product)
#   inline-test  from that `#[cfg(test)]` line to the end of the file
#   test-files   everything under a tests/, benches/ or examples/ directory
#
# With a ref, also prints the same three for that commit and the deltas.
#
#   scripts/loc.sh [<base-ref>]
set -euo pipefail
[[ $# -le 1 ]] || { echo "usage: scripts/loc.sh [<base-ref>]" >&2; exit 2; }
repo=$(cd "$(dirname "$0")/.." && pwd)
roots=(crates shims src tests examples)

# Prints "product inline-test test-files" for the tree at $1.
count() {
    (cd "$1" && find "${roots[@]}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 {
            product += held; held = inline = 0
            apart = FILENAME ~ /(^|\/)(tests|benches|examples)\//
        }
        apart { files++; next }
        inline { tests++; next }
        held && /^(pub(\([a-z]+\))? )?mod / { inline = 1; tests += 2; held = 0; next }
        { product += held; held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        { product++ }
        END { print product + held, tests + 0, files + 0 }
    ' | awk '{ p += $1; t += $2; f += $3 } END { print p, t, f }')
}

row() { printf '%-14s %9s %12s %11s\n' "$@"; }
row "" product inline-test test-files
read -r product tests files < <(count "$repo")
row "working tree" "$product" "$tests" "$files"

if [[ $# == 1 ]]; then
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    git -C "$repo" archive "$1" "${roots[@]}" | tar -x -C "$work"
    read -r base_product base_tests base_files < <(count "$work")
    row "$1" "$base_product" "$base_tests" "$base_files"
    row delta "$((product - base_product))" "$((tests - base_tests))" "$((files - base_files))"
fi
