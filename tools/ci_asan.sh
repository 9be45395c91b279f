#!/usr/bin/env bash
#===- tools/ci_asan.sh - AddressSanitizer + UBSan CI battery -------------===#
#
# Part of the Proteus reproduction project.
#
# Configures a dedicated build tree with
# -DPROTEUS_SANITIZE=address,undefined, builds the simulator, codegen and
# capture test binaries, and runs them under ASan and UBSan. The battery
# covers the decoders of outside bytes that reach the executor: object
# files (gpu_extras_test holds the per-field rejection cases and the seeded
# byte-mutation sweep over every HeCBench-sim kernel object) and capture
# artifacts (capture_replay_test holds the seeded byte-mutation sweep over
# every tests/corpus/*.pcap, each mutant re-framed with a correct header
# hash and replayed when it decodes). gpu_test also checks that a 256 MiB
# device commits only the pages it touches. Any memory error, leak or
# undefined-behaviour report fails the script.
#
# Usage: tools/ci_asan.sh [build-dir]   (default: build-asan)
#
#===----------------------------------------------------------------------===#
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"

# halt_on_error makes the first report fatal, so a report can never scroll
# past as a passing test.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

TESTS=(
  gpu_test
  gpu_extras_test
  codegen_test
  capture_replay_test
)

echo "== Configuring ASan+UBSan build in ${BUILD_DIR} =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROTEUS_SANITIZE=address,undefined

echo "== Building test battery =="
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TESTS[@]}"

STATUS=0
for T in "${TESTS[@]}"; do
  echo "== ASan+UBSan: ${T} =="
  if ! "${BUILD_DIR}/tests/${T}"; then
    echo "!! ${T} FAILED under AddressSanitizer/UBSan"
    STATUS=1
  fi
done

if [ "${STATUS}" -eq 0 ]; then
  echo "== ASan+UBSan battery passed: no reports =="
else
  echo "== ASan+UBSan battery FAILED =="
fi
exit "${STATUS}"
