#!/usr/bin/env bash
# Pre-merge gate: everything CI runs, in the order it fails fastest.
set -euo pipefail
cd "$(dirname "$0")/.."

# Announces a step, after saying how long the one before it took.
step_started=
step() {
    [[ -z $step_started ]] || echo "    ($((SECONDS - step_started)) s)"
    step_started=$SECONDS
    echo "==> $1"
}

step "cargo build --release"
cargo build --release

step "cargo test -q --workspace"
# The workspace run includes the suites that double as gates:
# * enospc: fill_to_capacity_stalls_never_errors_and_auto_resumes_on_all_profiles
#   and power_cut_at_the_capacity_edge_loses_no_acked_write are the
#   acceptance legs: capacity overruns stall (never error), auto-resume
#   within one SpaceWatcher poll, and lose no acked write across a cut at
#   the edge;
# * xlsm-engine's integrity: seeded_flip_sweep_never_silently_wrong_and_deterministic
#   runs the full bit-flip sweep over SST/WAL/MANIFEST twice with one seed
#   and asserts an identical outcome log;
# * xlsm-engine's oracle, the fault oracle:
#   every_option_and_fault_answers_like_the_model replays its corpus under
#   the default and every one-axis config, under every fault twice (same
#   seed => same recovered bytes) and through a power-cut sweep in all four
#   WAL recovery modes, then sampled (config, fault, op tape) cases over the
#   whole option x fault product, checking every read and every recovery
#   against one reference model.
cargo test -q --workspace

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# Every crate root denies unsafe_code, so clippy has just refused any unsafe
# a library does not explicitly allow; this count also covers the bins,
# tests, benches and examples. The four: the CRC32C kernel's call site
# (crates/engine/src/crc32c.rs), and in crates/sim/src/fiber.rs, the fiber
# body of sim threads, mapping a stack with its guard page and first frame,
# unmapping it, and the stack switch.
unsafes=$(grep -rE --include='*.rs' 'unsafe\s*(\{|fn|impl|trait|extern)' crates shims src tests examples | wc -l)
[[ $unsafes == 4 ]] || { echo "expected four unsafe blocks, found $unsafes" >&2; exit 1; }
# The integer-keyed maps a table probe walks hash with xlsm_sim::hash's
# FxHasher, not std's per-process SipHash (DESIGN.md §4): the files that hold
# them name no map under the default hasher, so none can slide back.
hot_maps=(crates/simfs/src/{pagecache,file,fs,content}.rs crates/engine/src/{cache,table_cache}.rs)
if grep -nwE 'HashMap|HashSet|RandomState' "${hot_maps[@]}"; then
    echo "a default-hasher map in a hot-map file: use xlsm_sim::hash::{FxHashMap, FxHashSet}" >&2
    exit 1
fi
# The scheduler knows no body: what a sim thread is on the host lives in
# crates/sim/src/{fiber,threads}.rs behind runtime::Body, and lib.rs picks one.
if grep -nE 'cfg\([^)]*fibers|\<(Fiber|Parker|Transport)\>' crates/sim/src/runtime.rs; then
    echo "a body's name or cfg(fibers) in the scheduler: keep it behind runtime::Body" >&2
    exit 1
fi
# Every sleep in the engine, the file system and the device is charged to a
# class (xlsm_sim::charge): no bare sleep_nanos in product code, meaning
# above a file's first top-level #[cfg(test)].
bare=$(find crates/{engine,simfs,device}/src -name '*.rs' -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /sleep_nanos\(/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $bare ]]; then
    echo "$bare"
    echo "a bare sleep_nanos in product code: charge it with xlsm_sim::charge" >&2
    exit 1
fi
# Every background thread of the engine is a row of the daemon table in
# crates/engine/src/background.rs, spawned by its one loop: a second spawn
# there is a bespoke loop sliding back in.
spawns=$(grep -c 'xlsm_sim::spawn(' crates/engine/src/background.rs)
[[ $spawns -le 1 ]] || { echo "background.rs spawns $spawns times: add a row to the daemon table instead" >&2; exit 1; }
# Every client op is timed once, by the engine's op record (DbStats::{gets,
# multi_gets, writes}), which the driver and the probes read after
# reset_window. The one histogram they build is parallelism's sequential
# timer, which times a loop of gets as one unit: a second is a self-timed
# latency path sliding back in.
hists=$(cat crates/workload/src/driver.rs crates/bench/src/*.rs | grep -c 'Histogram::new()' || true)
[[ $hists -le 1 ]] || { echo "the driver and probes build $hists histograms: read the engine's op record instead" >&2; exit 1; }
# The standing file-size rule (ROADMAP "Standing rules for every item"): no
# source file of a crate over 1,200 lines.
largest=$(find crates/*/src -name '*.rs' -exec wc -l {} + | grep -v ' total$' | sort -rn | head -3)
echo "largest files under crates/*/src:"
echo "$largest"
[[ $(awk 'NR == 1 {print $1}' <<<"$largest") -le 1200 ]] || { echo "a file under crates/*/src exceeds 1,200 lines" >&2; exit 1; }

step "cargo fmt --check"
cargo fmt --check

step "committed artifacts: xlsm-bench --quick all byte-identical to results/quick/"
scripts/same_bytes.sh

source scripts/pin.sh
bin=${CARGO_TARGET_DIR:-$PWD/target}/release/xlsm-bench
run="$(mktemp -d)"
trap 'rm -rf "$run"' EXIT
# The three probes that run full-size in seconds are also gated at full size.
for probe in parallelism writepath readpath; do
    step "committed artifact: $probe probe full-size, byte-identical to BENCH_$probe.json"
    (cd "$run" && "${pin[@]}" "$bin" "$probe" >/dev/null)
    cmp "$run/BENCH_$probe.json" "BENCH_$probe.json"
done

step "benchmark package's own tests"
bash benchmark/run.sh test

step "all checks passed in $SECONDS s"
