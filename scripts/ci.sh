#!/usr/bin/env bash
# Full CI pipeline: configure -> build -j -> ctest. Mirrors the tier-1
# verify command; usable locally and from .github/workflows/ci.yml.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

# SANITIZE=1 (or address) flips the build to ASan+UBSan, SANITIZE=thread
# to TSan with OpenMP off (see GESPMM_SANITIZE in the top-level
# CMakeLists); pair either with a separate BUILD_DIR so the instrumented
# and plain object files never mix. CTEST_LABEL narrows the test run to
# one ctest label (e.g. serve, stress) for sharded jobs.
EXTRA_CMAKE_ARGS=()
case "${SANITIZE:-0}" in
  0) ;;
  1 | address) EXTRA_CMAKE_ARGS+=(-DGESPMM_SANITIZE=address) ;;
  thread) EXTRA_CMAKE_ARGS+=(-DGESPMM_SANITIZE=thread) ;;
  *)
    echo "ci.sh: SANITIZE must be 0, 1, address or thread, not '$SANITIZE'" >&2
    exit 2
    ;;
esac
CTEST_ARGS=()
if [[ -n "${CTEST_LABEL:-}" ]]; then
  CTEST_ARGS+=(-L "$CTEST_LABEL")
fi

cmake -B "$BUILD_DIR" -S . "${EXTRA_CMAKE_ARGS[@]}" "$@"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --no-tests=error --output-on-failure -j "$JOBS" \
  "${CTEST_ARGS[@]}"

# Documentation gate: intra-repo markdown links must resolve, and the
# scripts' stdlib self-tests pass. On by default for local runs; the
# workflow's build jobs set RUN_DOCS_GATE=0 because its dedicated
# docs-check job already runs both once.
if [[ "${RUN_DOCS_GATE:-1}" == "1" ]]; then
  python3 ./scripts/check_docs_links.py
  python3 -m unittest discover -s scripts -p 'test_*.py'
fi

# Opt-in: the workflow's dedicated format job calls check_format.sh
# directly; running it unconditionally here would duplicate that gate in
# the build jobs on runners that ship clang-format.
if [[ "${RUN_FORMAT_GATE:-0}" == "1" ]]; then
  ./scripts/check_format.sh
fi
