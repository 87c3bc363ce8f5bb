#!/usr/bin/env bash
# The benchmark's one entry point. Builds the package, then:
#
#   run.sh                      every workload x 3 fresh processes -> out/<workload>.json
#   run.sh --trace              the same plus one traced run each -> out/<workload>.trace.jsonl
#   run.sh --twice              the suite twice on this tree; the two must agree
#   run.sh diff BASE_DIR NEW_DIR   compare two suites' out/ directories
#   run.sh calibrate [--seeds N]   measure spreads over seeds, write ../BENCHMARK.json
#   run.sh test                 the package's own tests
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#                               one run; last line of stdout is the result as JSON
#
# Other flags (--reps, --seed, --seconds) pass through to the suite.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# The repo's shared target/ unless the caller chose another.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/../target}
manifest=$here/Cargo.toml
bounds=$here/../BENCHMARK.json

if [[ ${1:-} == test ]]; then
    shift
    exec cargo test --offline --manifest-path "$manifest" "$@"
fi

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --manifest-path "$manifest" >&2
bin=$CARGO_TARGET_DIR/release/xlsm-benchmark

# Sim threads are OS threads of which exactly one runs at a time. Pinned to
# one CPU, a hand-off is a context switch; left to the scheduler it is a
# cross-CPU wake-up whose cost depends on where the threads happen to sit,
# which on a shared 2-CPU box swings host speed by 2-3x from run to run.
pin=()
if command -v taskset >/dev/null; then
    cpus=$(awk '/^Cpus_allowed_list/ {print $2}' /proc/self/status)
    pin=(taskset -c "${cpus##*[,-]}")
fi

# One run, as the pipeline calls it.
if [[ " $* " == *" --workload "* ]]; then
    exec "${pin[@]}" "$bin" run --out "$here/out/runs" --tag last "$@"
fi

case ${1:-} in
    diff)
        [[ $# == 3 ]] || { echo "usage: run.sh diff BASE_DIR NEW_DIR" >&2; exit 2; }
        exec "$bin" diff --base "$2" --new "$3" --bounds "$bounds"
        ;;
    calibrate)
        shift
        exec "${pin[@]}" "$bin" calibrate --out "$here/out" --bounds "$bounds" "$@"
        ;;
esac

args=()
while [[ $# -gt 0 ]]; do
    case $1 in
        --trace | --twice) args+=("$1" 1) ;;
        *) args+=("$1") ;;
    esac
    shift
done
exec "${pin[@]}" "$bin" suite --out "$here/out" --bounds "$bounds" "${args[@]}"
