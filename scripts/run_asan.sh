#!/usr/bin/env bash
# Builds the coroutine-bearing tests under AddressSanitizer and runs them.
#
# Covers the net::World messaging layer and its cooperative scheduler (task
# stacks are mmap'd and switched with swapcontext; the build maps every
# switch through ASan's fiber API), the distributed HPL drivers on it, the
# fault-injection chaos harness (a dead rank's exception unwinds a task
# stack), the solve server, the micro-kernel registry (its kernels load
# and store through unaligned vector accesses, and the masked edge path must
# never touch C outside the live corner), the panel kernels and DAG LU
# (every panel factors in a per-thread scratch copy that the DAG workers
# and each recursion level write), and the BLAS stage suite (the solve's
# forward sweep walks rows in 8-row blocks, where an off-by-one would read
# past a row). CI-runnable: exits non-zero on any ASan report or test
# failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DXPHI_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_net test_hpl test_fault test_serve test_microkernel \
  test_panel test_lu test_blas

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$BUILD_DIR/tests/test_net"
"$BUILD_DIR/tests/test_hpl"
"$BUILD_DIR/tests/test_fault"
"$BUILD_DIR/tests/test_serve"
"$BUILD_DIR/tests/test_microkernel"
"$BUILD_DIR/tests/test_panel"
"$BUILD_DIR/tests/test_lu"
"$BUILD_DIR/tests/test_blas"

echo "ASan: all monitored suites clean."
