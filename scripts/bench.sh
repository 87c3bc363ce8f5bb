#!/usr/bin/env bash
# Regenerates the committed BENCH_<probe>.json artifacts, full-size. (With
# --quick the CLI runs a fast smoke size; the committed files are the
# full-size output, so don't commit a quick-mode regeneration.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p xlsm-bench
bin=${CARGO_TARGET_DIR:-target}/release/xlsm-bench
# shellcheck disable=SC2046  # one word per probe name
"$bin" $("$bin" list --probes)

echo "==> done"
