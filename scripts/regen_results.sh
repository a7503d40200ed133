#!/usr/bin/env bash
# Regenerates every table and figure of the ISCA'94 reproduction — plus the
# chaos sweep and the traced time-breakdown decomposition — through the
# unified experiment driver: one build, one suite run, text and JSON records
# emitted together into results/ plus the BENCH_results.json suite summary.
# Exits non-zero if any simulated run or any rendered section fails.
#
# One worker by default, because BENCH_results.json publishes per-run host
# times and workers sharing cores inflate them. The simulated results are
# the same for any JOBS=N, which a quick local regeneration may set.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-1}

cargo build --release -p tmk-bench

./target/release/suite \
    --jobs "$JOBS" \
    --json --out results --bench-json BENCH_results.json

echo "regenerated results/*.{txt,json} and BENCH_results.json"
