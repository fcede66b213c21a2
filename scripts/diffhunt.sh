#!/usr/bin/env bash
# Long-running differential hunt (the CI nightly): builds diffhunt in Release
# with ASan+UBSan and runs seeded campaigns against all four DiffRunner legs
# (ES JIT / ES interpreter / OVS baseline / spec interpreter) until the time
# budget runs out.
#
#   scripts/diffhunt.sh                 # ~5 min hunt -> diff-artifacts/ on hit
#   SECONDS_BUDGET=60 scripts/diffhunt.sh
#   scripts/diffhunt.sh --replay diff-artifacts/foo.rules diff-artifacts/foo.pcap
#
# Env:
#   BUILD_DIR       build directory       (default: build-diffhunt)
#   OUT_DIR         artifact directory    (default: diff-artifacts)
#   SECONDS_BUDGET  hunt duration         (default: 300)
#   ESW_DIFF_PACKETS / ESW_DIFF_PIPELINES further sizing (see diffhunt --help)
#
# Exit: 0 clean, 1 divergence found (artifacts + replay command printed).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-diffhunt}"
OUT_DIR="${OUT_DIR:-diff-artifacts}"
SECONDS_BUDGET="${SECONDS_BUDGET:-300}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DESW_BUILD_TESTS=OFF \
  -DESW_BUILD_EXAMPLES=OFF \
  -DESW_BUILD_TOOLS=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target diffhunt

if [ "${1:-}" = "--replay" ]; then
  exec "$BUILD_DIR/tools/diffhunt" "$@"
fi

# Inject the time budget only when the caller didn't pick their own bound —
# diffhunt gives --seconds precedence over --campaigns, so forwarding both
# would silently override an explicit campaign count.
inject_seconds=1
for a in "$@"; do
  case "$a" in
    --seconds|--campaigns) inject_seconds=0 ;;
  esac
done
if [ "$inject_seconds" = 1 ]; then
  set -- --seconds "$SECONDS_BUDGET" "$@"
fi

exec "$BUILD_DIR/tools/diffhunt" --artifacts "$OUT_DIR" "$@"
