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
# * the root suite's oracle (tests/oracle.rs), the fault oracle:
#   every_option_and_fault_answers_like_the_model replays its corpus under
#   the default and every one-axis config, under every fault twice (same
#   seed => same recovered bytes) and through a power-cut sweep in all four
#   WAL recovery modes, then the pinned fault schedules (a power cut at the
#   capacity edge on every device, a retried scrub under an ENOSPC stall, a
#   trash delete failing under the reaper, a torn WAL or bit flips before
#   MANIFEST loss and repair), each of which must fire all of its faults in
#   order, then sampled (config, up to three faults, op tape) cases over the
#   whole option x fault product, checking every read and every recovery
#   against one reference model;
# * enospc: fill_to_capacity_stalls_never_errors_and_auto_resumes_on_all_profiles
#   is the acceptance leg on real capacity: overruns stall (never error)
#   and auto-resume within one SpaceWatcher poll;
# * xlsm-engine's integrity: seeded_flip_sweep_never_silently_wrong_and_deterministic
#   runs the full bit-flip sweep over SST/WAL/MANIFEST twice with one seed
#   and asserts an identical outcome log.
cargo test -q --workspace

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
# Every crate root denies unsafe_code, so clippy has just refused any unsafe
# a library does not explicitly allow; this count also covers the bins,
# tests, benches and examples. The twelve: in shims/parking_lot/src/lock.rs,
# the one lock kind, a mutex that is a borrow flag owned by a run-token
# domain: its Sync impl and its guard's two dereferences of the value cell (a
# lock without them is a std lock, two full fences per take: EXPERIMENTS.md
# "Host cost, round 12"); in crates/engine/src/crc32c.rs,
# the call into the CRC32C bodies and the folding body's unaligned 512-bit
# load (its safe form, built from byte reads, kept two fifths of the set-up
# gain: EXPERIMENTS.md "Host cost, round 11"); in crates/sim/src/fiber.rs,
# the fiber body of sim threads, mapping a stack with its guard page and
# first frame, unmapping it, and the stack switch; in
# tests/support/counting_alloc.rs, which the alloc_budget and oracle test
# binaries include, the counting global allocator (`unsafe impl GlobalAlloc`
# and its alloc, dealloc and realloc), which no safe code can write.
unsafes=$(grep -rE --include='*.rs' 'unsafe\s*(\{|fn|impl|trait|extern)' crates shims src tests examples | wc -l)
[[ $unsafes == 12 ]] || { echo "expected twelve unsafe sites, found $unsafes" >&2; exit 1; }
# The run token is the only lock (DESIGN.md §4): every lock is the shim's,
# whose take is a borrow flag, so no product code under crates/*/src (above a
# file's first top-level #[cfg(test)]) names a std::sync lock, which would
# pay two full fences per take and escape guards_held.
std_locks=$(find crates/*/src -name '*.rs' -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /std::sync::(\{([^}]*[^A-Za-z_0-9])?)?(Mutex|RwLock)([^A-Za-z_0-9]|$)/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $std_locks ]]; then
    echo "$std_locks"
    echo "a std::sync lock in product code: use the parking_lot shim's" >&2
    exit 1
fi
# One sim thread runs at a time (DESIGN.md §4), so product code needs no
# atomic read-modify-write and no retry loop: a counter only the run-token
# holder writes adds with a load and a store (xlsm_sim::sync::{add, max}).
# No fetch_*, swap or compare-exchange call in product code under
# crates/*/src (above a file's first top-level #[cfg(test)]), except the one
# flag two OS threads really share: the parker's grant flag in
# crates/sim/src/threads.rs, set by the thread that hands the run token over
# and consumed by the one that takes it.
rmw=$(find crates/*/src -name '*.rs' -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    FILENAME == "crates/sim/src/threads.rs" && /self\.granted\.swap\(/ { next }
    /\.(fetch_(add|sub|max|min|or|and|nand|xor|update)|compare_exchange(_weak)?|swap)\(/ {
        print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $rmw ]]; then
    echo "$rmw"
    echo "an atomic read-modify-write in product code: use xlsm_sim::sync::{add, max}" >&2
    exit 1
fi
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
# One compaction runs at a time (DESIGN.md §4), so the picker keeps no busy
# set: that holds only while one thread picks. In product code under
# crates/engine/src (above a file's first top-level #[cfg(test)]; comments
# skipped), pick_compaction( is called only inside compact_one, and
# compact_one( only in the compaction row ("compact-0") of the daemon table.
pickers=$(find crates/engine/src -name '*.rs' -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /^[[:space:]]*\/\// { next }
    match($0, /(^|[^a-z_0-9])fn [a-z_0-9]+/) { split(substr($0, RSTART, RLENGTH), w, "fn "); in_fn = w[2]; row = "" }
    match($0, /spawn_daemon\(inner, "[^"]*"/) { row = substr($0, RSTART + 21, RLENGTH - 22) }
    /(^|[^a-z_0-9])pick_compaction\(/ && !/fn pick_compaction/ && in_fn != "compact_one" { print FILENAME ":" FNR ": " $0 }
    /(^|[^a-z_0-9])compact_one\(/ && !/fn compact_one/ && row != "compact-0" { print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $pickers ]]; then
    echo "$pickers"
    echo "a second caller of pick_compaction or compact_one: the picker assumes one compaction at a time" >&2
    exit 1
fi
# The database directory has one owner (DESIGN.md §2): crates/engine/src/filenames.rs
# names, parses and lists every file under <db>/. No other product code under
# crates/engine/src (above a file's first top-level #[cfg(test)]; comment
# lines skipped) spells a database file name.
paths=$(find crates/engine/src -name '*.rs' ! -path crates/engine/src/filenames.rs -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /^[[:space:]]*\/\// { next }
    /\.sst"|\.log"|\/trash\/|\/lost\/|CURRENT"|MANIFEST|\.repair/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $paths ]]; then
    echo "$paths"
    echo "a database file name spelled outside filenames.rs: name it there" >&2
    exit 1
fi
# A case study is logic the engine lacks, not a spelling of its options: the
# options are set where the experiment runs, so no DbOptions in the product
# code of crates/core/src/casestudy (above a file's first top-level #[cfg(test)]).
spelled=$(find crates/core/src/casestudy -name '*.rs' -exec awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    /DbOptions/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [[ -n $spelled ]]; then
    echo "$spelled"
    echo "DbOptions in case-study product code: set the options where the experiment runs" >&2
    exit 1
fi
# The write queue's state sits under one lock (DESIGN.md §4): a second Mutex in write.rs is state sliding out from under it.
mutexes=$(awk '/^#\[cfg\(test\)\]/ { exit } /Mutex</ { n++ } END { print n + 0 }' crates/engine/src/write.rs)
[[ $mutexes -le 1 ]] || { echo "write.rs holds $mutexes Mutex types: keep the queue's state under its one lock" >&2; exit 1; }
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
# The three probes that run full-size in seconds are also gated at full size:
# every table they write is byte-identical to its committed copy.
step "committed artifacts: parallelism, writepath and readpath full-size, byte-identical to results/"
(cd "$run" && "${pin[@]}" "$bin" parallelism writepath readpath >/dev/null)
for table in "$run"/results/*.tsv; do
    cmp "$table" "results/${table##*/}"
done

step "benchmark package's own tests"
bash benchmark/run.sh test

step "all checks passed in $SECONDS s"
