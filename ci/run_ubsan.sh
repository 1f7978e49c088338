#!/usr/bin/env bash
# UndefinedBehaviorSanitizer job for the whole test suite.
#
# Configures a dedicated build tree with -DDGNN_SANITIZE=undefined (which
# also adds -fsanitize=float-cast-overflow, missing from GCC's
# "undefined" group, and makes both non-recoverable), builds every
# target and runs the full CTest suite. Any UB report — a null memcpy, a
# misaligned load, a signed overflow, an out-of-range shift or enum, a
# double cast to an int that cannot hold it — aborts the test that
# triggered it, so a green run certifies the suite UB-free.
#
# Usage: ci/run_ubsan.sh [build-dir]   (default: build-ubsan)
#
# DGNN_SANITIZE=address,undefined runs ASan and UBSan together:
#   cmake -B build-asan-ubsan -S . -DDGNN_SANITIZE=address,undefined

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDGNN_SANITIZE=undefined

cmake --build "$BUILD_DIR" -j"$(nproc)"

# print_stacktrace: name the call chain of the first report; the build
# flags already make every report fatal.
UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "UBSan job passed: no undefined behaviour reported."
