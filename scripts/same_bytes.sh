#!/usr/bin/env bash
# Same bytes as committed: builds the working tree, runs `xlsm-bench --quick
# all` pinned into a temporary directory and compares every file byte for
# byte with the committed quick copy under results/quick/ of <base-ref> (read
# with git archive, not rebuilt), or of the working tree when no ref is given.
# A file on one side only fails like a pair that differs; a differing pair
# shows the first 20 lines of its diff. This is the acceptance a
# behaviour-preserving change has to pass; scripts/check.sh runs it with no ref.
#
# A change that moves the virtual clock on purpose states its blast radius:
# every artifact named after --moved (as the comparison prints it, e.g.
# results/quick/fig19.tsv) must differ, every other one must still be
# identical — a named file that did not move fails like an unnamed one that did.
#
#   scripts/same_bytes.sh [<base-ref>] [--moved <artifact>...]
set -euo pipefail
usage() { echo "usage: scripts/same_bytes.sh [<base-ref>] [--moved <artifact>...]" >&2; exit 2; }
base_ref=
if [[ $# -gt 0 && $1 != --* ]]; then
    base_ref=$1
    shift
fi
moved=()
if [[ $# -gt 0 ]]; then
    [[ $1 == --moved && $# -ge 2 ]] || usage
    moved=("${@:2}")
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
quick=results/quick

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/run"
base=$repo
if [[ -n $base_ref ]]; then
    base=$work/base
    git -C "$repo" archive "$base_ref" "$quick" | tar -x -C "$base"
fi

echo "==> build"
(cd "$repo" && cargo build -q --release --offline -p xlsm-bench)
source "$repo/scripts/pin.sh"
echo "==> xlsm-bench --quick all"
started=$SECONDS
(cd "$work/run" && "${pin[@]}" "${CARGO_TARGET_DIR:-$repo/target}/release/xlsm-bench" --quick all) \
    >/dev/null 2>"$work/stderr" || { tail -20 "$work/stderr"; exit 1; }
echo "    $((SECONDS - started)) s"

status=0
listed() { [[ ! -d $1/$quick ]] || (cd "$1" && find "$quick" -type f); }
artifacts=$( (listed "$base"; listed "$work/run") | sort -u)
for f in "${moved[@]}"; do
    grep -qxF "$f" <<<"$artifacts" || { echo "UNKNOWN $f (named after --moved, not an artifact)"; status=1; }
done
for f in $artifacts; do
    expected=same
    [[ " ${moved[*]} " == *" $f "* ]] && expected=moved
    if [[ ! -e $base/$f ]]; then
        echo "EXTRA   $f (written, not committed)"
        status=1
    elif [[ ! -e $work/run/$f ]]; then
        echo "MISSING $f (committed, not written)"
        status=1
    elif cmp -s "$base/$f" "$work/run/$f"; then
        echo "same    $f"
        [[ $expected == same ]] || { echo "        named after --moved, but it did not move"; status=1; }
    elif [[ $expected == moved ]]; then
        echo "moved   $f"
        diff "$base/$f" "$work/run/$f" | head -20 || true
    else
        echo "DIFFERS $f"
        diff "$base/$f" "$work/run/$f" | head -20 || true
        status=1
    fi
done
against=${base_ref:-the working tree}
if [[ $status != 0 ]]; then
    echo "==> NOT as stated against $against ($SECONDS s)"
elif [[ ${#moved[@]} == 0 ]]; then
    echo "==> $(wc -w <<<"$artifacts") artifacts byte-identical to $against ($SECONDS s)"
else
    echo "==> ${#moved[@]} moved as stated, the rest byte-identical to $against ($SECONDS s)"
fi
exit $status
