#!/usr/bin/env bash
# Builds the figure benches and emits BENCH_<figure>.json reports.
#
#   scripts/bench.sh                      # all figures -> bench-results/
#   scripts/bench.sh --only fig10,fig13   # subset
#   scripts/bench.sh -- --benchmark_filter='es:1'   # forward bench flags
#
# Env:
#   BUILD_DIR  build directory            (default: build-bench)
#   OUT_DIR    where BENCH_*.json land    (default: bench-results)
#
# fig19 runs real concurrent worker threads (both legs on core::SwitchRuntime:
# one shared ES switch, or share-nothing one-worker OVS runtimes) and emits per-worker points (threads, pps_w<i>, aggregate
# pps, churn_mods_per_s) that `run_all --check OUT_DIR` validates; tune with
# ESW_FIG19_WARMUP_MS / ESW_FIG19_MEASURE_MS / ESW_FIG19_CHURN_RATE.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench}"
OUT_DIR="${OUT_DIR:-bench-results}"
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DESW_BUILD_BENCH=ON \
  -DESW_BUILD_TESTS=OFF \
  -DESW_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

exec "$BUILD_DIR/bench/run_all" \
  --bin-dir "$BUILD_DIR/bench" \
  --out-dir "$OUT_DIR" \
  --git-sha "$GIT_SHA" \
  "$@"
