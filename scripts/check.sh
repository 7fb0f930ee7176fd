#!/usr/bin/env bash
# Pre-merge entry point: strict build, full test suite, design-rule lint of
# the shipped fixtures, and (when installed) clang-tidy over src/.
#
# Usage: scripts/check.sh [build-dir]     (default: build-check)
#
# Every step runs even after an earlier one failed, so one red gate cannot
# hide the others; the script then exits 1 and lists the failed steps. Only
# a failed configure/build stops it at once: every later step runs what the
# build produces.
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"
RWLINT="$BUILD_DIR/tools/rwlint"
PERF_MICRO="$BUILD_DIR/bench/perf_micro"
FAILED=()

# step TITLE COMMAND...: runs COMMAND in a subshell that stops at its first
# failing command, and records TITLE when it fails.
step() {
  local title="$1"
  shift
  echo "== $title =="
  (
    set -e
    "$@"
  )
  local status=$?
  if [[ $status -ne 0 ]]; then
    echo "error: step '$title' failed (exit $status)" >&2
    FAILED+=("$title")
  fi
}

report() {
  if [[ ${#FAILED[@]} -eq 0 ]]; then
    echo "== all checks passed =="
    exit 0
  fi
  echo "== ${#FAILED[@]} step(s) failed ==" >&2
  printf '  - %s\n' "${FAILED[@]}" >&2
  exit 1
}

build() {
  cmake -B "$BUILD_DIR" -S . -DRELIAWARE_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS"
}

lint_fixtures() {
  "$RWLINT" --lib examples/fixtures/mini.lib examples/fixtures/clean.v
  "$RWLINT" --lib examples/fixtures/merged.lib examples/fixtures/annotated.v
}

lint_broken() {
  if "$RWLINT" --format json --lib examples/fixtures/mini.lib tests/fixtures/broken.v; then
    echo "error: rwlint accepted tests/fixtures/broken.v" >&2
    return 1
  fi
  echo "rwlint rejected broken.v as expected"
}

# The flattened (scenario × cell × arc × OPC) scheduler plus the
# structure-reusing solver: an N-thread library characterization must beat
# 1 thread by >1.5x. Only demonstrable with >=2 cores; single-core runners
# still exercise the path (and the counters) but skip the ratio gate. One
# run on a shared host can land on a busy minute, so the gate reads the
# median of three runs.
perf_smoke() {
  local run speedups=()
  for run in 1 2 3; do
    "$PERF_MICRO" --json-only --threads "$JOBS" --json-cells=8 \
      --json-out="$BUILD_DIR/perf_smoke.$run.json"
    speedups+=("$(sed -n 's/.*"char_library".*"speedup": \([0-9.]*\).*/\1/p' \
      "$BUILD_DIR/perf_smoke.$run.json")")
  done
  local speedup
  speedup="$(printf '%s\n' "${speedups[@]}" | sort -g | sed -n 2p)"
  echo "char_library speedup at $JOBS thread(s): ${speedups[*]} -> median ${speedup}x"
  if [[ "$JOBS" -lt 2 ]]; then
    echo "single core: thread-speedup ratio gate skipped (needs >= 2 cores)"
    return 0
  fi
  if ! awk -v s="$speedup" 'BEGIN{exit !(s > 1.5)}'; then
    echo "error: char_library $JOBS-thread speedup ${speedup}x <= 1.5x" >&2
    return 1
  fi
}

# util_test feeds every JSON reader (charlib and flow manifests, serve
# frames, spool records, run reports) truncated and byte-flipped copies of
# its writer's output; ASan turns any out-of-bounds read into a failure.
asan_json() {
  local asan_dir="${BUILD_DIR}-asan"
  cmake -B "$asan_dir" -S . -DRW_SANITIZE=address
  cmake --build "$asan_dir" -j "$JOBS" --target util_test
  "$asan_dir/tests/util_test"
}

# The fault-injection paths (injector arming, in-flight dedup failure
# propagation, manifest writes) and the cancellation polls (token + watchdog
# + cv waiters) are concurrency surfaces; run them in a dedicated TSan tree
# alongside the plain-build run above. The lint and the stress/activity
# analyses are serial, so the TSan tree builds neither lint_test nor rwlint.
TSAN_DIR="${BUILD_DIR}-tsan"
tsan_build() {
  cmake -B "$TSAN_DIR" -S . -DRW_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" --target \
    resilience_test thread_pool_test stress_test activity_test prove_test \
    cancel_test orchestrator_test flow_resume_test rwchaos rwprove \
    rwactivity perf_smoke_test adaptive_grid_test serve_test
}

# A FAILING gate, not advisory: lint_cxx passes --warnings-as-errors=* so any
# clang-tidy finding (config in .clang-tidy) fails this script. Only skipped
# — loudly — when the binary is absent from the machine.
clang_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake --build "$BUILD_DIR" --target lint_cxx
  else
    echo "WARNING: clang-tidy not installed; gate SKIPPED (it fails the build when present)" >&2
  fi
}

# Same contract: --error-exitcode=1 with the checked-in suppression list;
# new findings must be fixed or explicitly suppressed in that file.
cppcheck_gate() {
  if command -v cppcheck >/dev/null 2>&1; then
    cmake --build "$BUILD_DIR" --target cppcheck_cxx
  else
    echo "WARNING: cppcheck not installed; gate SKIPPED (it fails the build when present)" >&2
  fi
}

step "configure + build (-Werror)" build
[[ ${#FAILED[@]} -eq 0 ]] || report

step "tests" ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
step "rwlint: example fixtures must be clean" lint_fixtures
step "rwlint: seeded-broken fixture must fail" lint_broken
step "perf smoke: flattened characterization must scale across threads" perf_smoke

# Crash-only contract drill: every seeded trial (solver faults, deadlines,
# SIGKILL at stage boundaries) must either complete correctly or fail with
# a structured report and then resume bitwise-identically. The ctest run
# above already executed the chaos label once; this re-runs it explicitly
# so a filtered ctest invocation cannot silently drop the gate.
step "chaos: fixed-seed campaign in the plain tree" \
  ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure

# rwserved's failure contract: worker leases + SIGKILL redelivery, daemon
# restart with idempotent-id replay, cross-process dedup (exactly one SPICE
# campaign for concurrent duplicates), bounded overload shedding, SIGTERM
# drain — plus the 3-fixed-seed `rwchaos --serve` smoke. Re-run explicitly
# so a filtered ctest invocation cannot drop the gate.
step "serve: crash-tolerant characterization service in the plain tree" \
  ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

# Eight processes x 1000 acquire/release rounds of the cross-process lease,
# asserting at most one holder at a time. A race in the primitive shows up
# only in some runs, so repeat it until one fails.
step "lease: mutual-exclusion stress, repeated" \
  ctest --test-dir "$BUILD_DIR" -R '^lease_mutual_exclusion$' --output-on-failure \
  --repeat until-fail:20

# The soundness contract (simulated aged delay inside the proven interval,
# scalar collapse, PV verdicts, fixture exit codes). As with the chaos label,
# re-run explicitly so a filtered ctest invocation cannot drop the gate.
step "prove: certified interval-STA suite in the plain tree" \
  ctest --test-dir "$BUILD_DIR" -L prove --output-on-failure -j "$JOBS"

# The toggle-rate soundness contract (simulated rates inside the proven
# density intervals on every paper circuit, zero-width collapse to
# simulator-exact rates, AC verdicts). Re-run
# explicitly so a filtered ctest invocation cannot drop the gate.
step "activity: switching-activity bounds suite in the plain tree" \
  ctest --test-dir "$BUILD_DIR" -L activity --output-on-failure -j "$JOBS"

# Every tool's usage-error contract (trailing junk or a comma decimal in a
# number, an unknown flag, malformed rwclient corners, rwserved --gc and
# rwchaos refusing before they touch a cache or trial directory). Re-run
# explicitly so a filtered ctest invocation cannot drop the gate.
step "cli: malformed command lines exit 64 before any work" \
  ctest --test-dir "$BUILD_DIR" -L cli --output-on-failure -j "$JOBS"

step "JSON codec + line reader under AddressSanitizer" asan_json
if [[ "${RW_SKIP_TSAN:-0}" != "1" ]]; then
  step "ThreadSanitizer: build" tsan_build
  for label in resilience stress activity prove chaos serve perf; do
    # The stress, activity and prove suites drive flows whose library
    # characterization runs on the shared pool. The serve
    # label (daemon supervisor, socketpair worker protocol, client retry
    # loop) forks real daemons; TSan watches the pre-fork pool shrink and
    # the supervisor's reap/redeliver bookkeeping. The perf label covers the
    # workspace-reuse solve path and the flattened batch scheduler:
    # thread-local workspace caches, the shared once-per-arc DC seed, and
    # the batch's per-item error slots. chaos and serve run serially.
    parallel=(-j "$JOBS")
    [[ $label == chaos || $label == serve ]] && parallel=()
    step "ThreadSanitizer: $label" \
      ctest --test-dir "$TSAN_DIR" -L "$label" --output-on-failure "${parallel[@]}"
  done
else
  echo "== suites under ThreadSanitizer =="
  echo "RW_SKIP_TSAN=1; skipping"
fi
step "clang-tidy (failing gate; --warnings-as-errors)" clang_tidy
step "cppcheck (failing gate; scripts/cppcheck_suppressions.txt)" cppcheck_gate

report
