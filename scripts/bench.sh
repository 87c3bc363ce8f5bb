#!/usr/bin/env bash
# Rewrites every committed artifact at both sizes: the full-size tables
# under results/ and the quick copy of all of them under results/quick/ that
# scripts/same_bytes.sh compares a fresh quick run with.
#
# Ends by writing BENCH_wall.json: what the run cost on the host clock (wall
# seconds of each registry entry at full size and of the quick suite, the
# oracle test's seconds, peak resident memory and peak of live heap bytes,
# the seconds of every test
# binary of `cargo test --release --workspace`, mean ns of every engine_micro
# bench, and where two probes spent their host time: host ms per charge
# class, scheduler and switch, fill and window, for one write-only `--quick
# probe` on SATA and one read-only full-size probe on XPoint, ROADMAP item
# 10's read-path rows). Informational — it differs run to run and host to
# host, and no script compares it.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p xlsm-bench
cargo bench -q -p xlsm-bench --bench engine_micro --no-run
cargo test -q -p xlsm-suite --test oracle --no-run
cargo test -q --release --workspace --no-run
bin=${CARGO_TARGET_DIR:-target}/release/xlsm-bench
# One CPU, as in check.sh: unpinned, a probe's wall seconds swing severalfold.
source scripts/pin.sh

# A file no experiment writes any more must not outlive it.
rm -rf results/*.tsv results/quick
# Runs xlsm-bench pinned on ${@:3}; appends "$2": <its seconds> to array $1.
timed() {
    local -n into=$1
    local started=$SECONDS
    "${pin[@]}" "$bin" "${@:3}"
    into+=("    \"$2\": $((SECONDS - started))")
}
# One row per registry entry, named by its first name (`list` prints an
# entry's names on one line).
mapfile -t entries < <("$bin" list)
entry_rows=() suite_rows=()
for entry in "${entries[@]%% *}"; do
    timed entry_rows "$entry" "$entry"
done
timed suite_rows quick_all --quick all

# The oracle's budget, as its test harness times it (no build, no cargo), its
# peak resident memory (VmHWM) and its peak of live heap bytes (its counting
# allocator's), which the test prints. VmHWM also counts the freed heap the C
# allocator keeps, which moves with allocation order; the live peak does not.
echo "==> oracle"
oracle_out=$("${pin[@]}" cargo test -q -p xlsm-suite --test oracle -- --show-output)
oracle_s=$(sed -n 's/.*finished in \([0-9.]*\)s.*/\1/p' <<<"$oracle_out")
oracle_mb=$(awk '$1 == "VmHWM:" {print int($2 / 1024)}' <<<"$oracle_out")
oracle_live_mb=$(awk '/^live heap peak:/ {print int($4 / 1024)}' <<<"$oracle_out")
[[ -n $oracle_s && -n $oracle_mb && -n $oracle_live_mb ]] ||
    { echo "the oracle printed no time or memory" >&2; exit 1; }
echo "oracle $oracle_s s, peak $oracle_mb MiB, live heap peak $oracle_live_mb MiB"

# Every test binary of the release workspace run, as its harness times it,
# keyed by its source file (doc-tests by crate). Cargo names the binary it
# runs; its build record maps the binary to the source file.
echo "==> cargo test --release --workspace"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cargo test -q --release --workspace --no-run --message-format=json >"$scratch/builds.json"
"${pin[@]}" cargo test --release --workspace >"$scratch/tests.txt" 2>&1
mapfile -t test_rows < <(python3 - "$scratch/builds.json" "$scratch/tests.txt" "$PWD" <<'EOF'
import json, os, re, sys

builds, tests, root = sys.argv[1:]
source = {}
for line in open(builds):
    m = json.loads(line)
    if m.get("executable"):
        source[os.path.basename(m["executable"])] = os.path.relpath(m["target"]["src_path"], root)
label = None
for line in open(tests):
    if m := re.match(r"\s*Running .* \((.*)\)$", line):
        label = source[os.path.basename(m[1])]
    elif m := re.match(r"\s*Doc-tests (\S+)", line):
        label = f"doc-tests {m[1]}"
    elif m := re.search(r"^test result: .* finished in ([0-9.]+)s", line):
        print(f'    "{label}": {m[1]}')
EOF
)
((${#test_rows[@]})) || { echo "cargo test printed no result" >&2; exit 1; }
printf '%s\n' "${test_rows[@]}"

# Runs xlsm-bench pinned on ${@:2} and stores its host-clock rows, one JSON
# line per phase, in array $1.
host_rows() {
    local -n into=$1
    mapfile -t into < <("${pin[@]}" "$bin" "${@:2}" | python3 -c '
import re, sys
phases = {}
for line in sys.stdin:
    if m := re.match(r"host clock, (\w+): ([0-9.]+) ms, rows ([0-9.]+) %", line):
        rows = phases[m[1]] = {"wall_ms": m[2], "rows_pct": m[3]}
    elif phases and (m := re.match(r"  (\w+)\s+([0-9.]+)\s", line)) and m[1] != "row":
        rows[m[1]] = m[2]
for phase, rows in phases.items():
    cells = ", ".join(f"\"{k}\": {v}" for k, v in rows.items())
    print(f"    \"{phase}\": {{{cells}}}")
')
    ((${#into[@]})) || { echo "the probe printed no host rows" >&2; exit 1; }
    printf '%s\n' "${into[@]}"
}
echo "==> host time per charge class"
host_rows probe_host_rows --quick probe sata 100 4 1
host_rows read_host_rows probe xpoint 0 4 1

echo "==> engine_micro"
micro_rows=()
while read -r name mean unit _; do
    [[ $unit == ns/iter ]] || continue
    echo "$name $mean ns/iter"
    micro_rows+=("    \"$name\": $mean")
done < <("${pin[@]}" cargo bench -q -p xlsm-bench --bench engine_micro)
((${#micro_rows[@]})) || { echo "engine_micro printed no result" >&2; exit 1; }

# One argument per line, a comma after all but the last.
rows() { printf '%s\n' "$@" | sed '$!s/$/,/'; }
{
    echo '{'
    echo '  "note": "host clock, informational: differs run to run, compared by no script",'
    echo "  \"pinned_to_one_cpu\": $([[ ${#pin[@]} -gt 0 ]] && echo true || echo false),"
    echo '  "suite_wall_s": {'
    rows "${suite_rows[@]}"
    echo '  },'
    echo '  "entry_wall_s": {'
    rows "${entry_rows[@]}"
    echo '  },'
    echo '  "test_wall_s": {'
    echo "    \"oracle\": $oracle_s"
    echo '  },'
    echo '  "test_peak_rss_mb": {'
    echo "    \"oracle\": $oracle_mb"
    echo '  },'
    echo "  \"oracle_live_heap_mb\": $oracle_live_mb,"
    echo '  "release_test_binary_s": {'
    rows "${test_rows[@]}"
    echo '  },'
    echo '  "engine_micro_mean_ns": {'
    rows "${micro_rows[@]}"
    echo '  },'
    echo '  "probe_sata_100_host_ms": {'
    rows "${probe_host_rows[@]}"
    echo '  },'
    echo '  "probe_xpoint_0_host_ms": {'
    rows "${read_host_rows[@]}"
    echo '  }'
    echo '}'
} >BENCH_wall.json

echo "==> done"
