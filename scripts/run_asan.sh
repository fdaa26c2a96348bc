#!/usr/bin/env bash
# Builds the coroutine-bearing tests under AddressSanitizer and runs them.
#
# Covers the net::World messaging layer and its cooperative scheduler (task
# stacks are mmap'd and switched with swapcontext; the build maps every
# switch through ASan's fiber API), the distributed HPL drivers on it, the
# fault-injection chaos harness (a dead rank's exception unwinds a task
# stack) and the solve server. CI-runnable: exits non-zero on any ASan
# report or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DXPHI_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_net test_hpl test_fault test_serve

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$BUILD_DIR/tests/test_net"
"$BUILD_DIR/tests/test_hpl"
"$BUILD_DIR/tests/test_fault"
"$BUILD_DIR/tests/test_serve"

echo "ASan: all monitored suites clean."
