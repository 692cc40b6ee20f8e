#!/usr/bin/env bash
# Modelled-identity check against a base commit: build bench_all at
# <base-ref> and at the working tree, run the quick bench suite on both
# simulated devices with each, and require every non-wall-clock record of
# the working tree's report to equal the base's bit for bit
# (scripts/bench_compare.py --exact). A change that moves the modelled time
# of any bench row fails here. Rows record times, not event counts: the
# AddressOnlyPricing digests in tests/test_gpusim_launch.cpp also catch an
# event change that leaves every modelled time as it was.
#
#   scripts/check_modelled_identity.sh <base-ref> [extra cmake args...]
#
# A change that does move modelled time re-records BENCH_baseline.json in
# the same change (see ROADMAP.md, standing constraints). So when
# BENCH_baseline.json differs between <base-ref> and the working tree, the
# check exits 0 with a note instead of comparing.
#
# <base-ref> is exported with `git archive` into its own source and build
# directories under WORK_DIR (default: a new temporary directory), next to
# the working tree's build directory and the two reports. Extra arguments
# go to both CMake configure steps (e.g. -DCMAKE_CXX_COMPILER_LAUNCHER=ccache).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <base-ref> [extra cmake args...]" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
ROOT="$PWD"
BASE="$(git rev-parse --verify "$1^{commit}")"
shift

if ! git diff --quiet "$BASE" -- BENCH_baseline.json; then
  echo "check_modelled_identity: BENCH_baseline.json differs from ${BASE:0:12};" \
    "this change declares a modelled change and re-records the baseline, so" \
    "modelled identity is not required."
  exit 0
fi

WORK_DIR="${WORK_DIR:-$(mktemp -d)}"
JOBS="${JOBS:-$(nproc)}"
START=$SECONDS

rm -rf "$WORK_DIR/base-src"
mkdir -p "$WORK_DIR/base-src"
git archive "$BASE" | tar -x -C "$WORK_DIR/base-src"

# logged <log> <command...>: run quietly; on failure show the log's tail.
logged() {
  local log="$1"
  shift
  "$@" > "$log" 2>&1 || { tail -n 40 "$log" >&2; return 1; }
}

# build_and_run <source dir> <name> [cmake args...]: build bench_all and
# write <name>.json.
build_and_run() {
  local src="$1" name="$2"
  local build="$WORK_DIR/build-$name"
  shift 2
  logged "$WORK_DIR/$name-configure.log" cmake -B "$build" -S "$src" \
    -DGESPMM_BUILD_TESTS=OFF -DGESPMM_BUILD_EXAMPLES=OFF "$@"
  logged "$WORK_DIR/$name-build.log" cmake --build "$build" -j "$JOBS" --target bench_all
  logged "$WORK_DIR/$name-bench.log" env OMP_WAIT_POLICY=passive \
    "$build/bench/bench_all" --quick --device=both --json="$WORK_DIR/$name.json"
}

echo "check_modelled_identity: base ${BASE:0:12}, work dir $WORK_DIR"
build_and_run "$WORK_DIR/base-src" base "$@"
build_and_run "$ROOT" head "$@"

status=0
python3 "$ROOT/scripts/bench_compare.py" "$WORK_DIR/head.json" \
  --baseline "$WORK_DIR/base.json" --exact || status=$?
echo "check_modelled_identity: $((SECONDS - START)) s"
exit "$status"
