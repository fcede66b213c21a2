#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release) into .bench_build/e2e and runs
# it with the given arguments.  Run from the repository root, e.g.
#   bash bench/e2e/run.sh --workload gateway --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target esw_e2e -j "$jobs" >&2

mkdir -p "$build/out"
exec "$build/esw_e2e" --out "$build/out" "$@"
