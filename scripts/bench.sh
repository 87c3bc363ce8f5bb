#!/usr/bin/env bash
# Regenerates the committed bench artifacts (the device-parallelism,
# write-path, read-path, stability, and space probes). Full-size by default;
# XLSM_QUICK=1 for a fast smoke run — note the committed BENCH_*.json
# files are the full-size output, so don't commit a quick-mode
# regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

for probe in parallelism writepath readpath stability space; do
    echo "==> $probe probe -> BENCH_$probe.json"
    cargo run -q --release -p xlsm-bench --bin xlsm-bench -- "$probe" "BENCH_$probe.json"
done

echo "==> done"
