#!/usr/bin/env bash
# CI entrypoint for the parser-hardening quality gate.
#
# Runs, in order:
#   1. tier-1: default build + full ctest (includes the origin_analyze
#      gates and the deterministic fuzz-corpus replays)
#   2. the repository benchmark's own tests: perfbench/ configured as its
#      own project into build-perfbench + its ctest. TracedCorpus.* sets
#      the library's folded HAR digest (StreamingCorpus::run at 1 and 4
#      threads) against perfbench's separately computed
#      fnv1a64(to_har_string(load)) chain over the whole pipeline
#   3. one origin_analyze run over the full src/ tree: the hot-path
#      allocation, determinism, layering, lint (per-line source rules),
#      transitive-hot, lock-order, and error-propagation contracts must
#      have zero unwaived findings AND zero findings drift — every waived
#      finding must already appear in the committed analyze_findings.json
#      baseline, so a new waiver cannot land without the baseline diff
#      showing up in review. The per-pass finding counts (lint included)
#      print at the end of the leg; the fresh machine-readable findings
#      land in analyze_findings.json at the repo root (committing that file
#      is how the baseline is updated)
#   4. clang-tidy over the parser directories, when clang-tidy is on PATH
#      (advisory skip otherwise — the pinned CI image is gcc-only)
#   5. ASan preset build + full ctest
#   6. fault matrix: the wire/loader suites replayed at injected fault
#      rates 0 / 5 / 20% (ORIGIN_FAULT_RATE) under the ASan build, so every
#      degradation path (timeout, backoff, avoid-list, re-dispatch) runs
#      with the allocator instrumented
#   7. overload abuse matrix: the server-side overload suites replayed
#      under the ASan build across ORIGIN_ABUSE_MIX attacker mixes, so
#      every shed path (rapid-reset, header bomb, PING/SETTINGS floods,
#      slowloris reaping, admission refusal, drain) runs with the
#      allocator instrumented under each mix
#   8. kill–resume matrix: the crash-consistency suites (durable-file
#      commit windows, OCM1 manifest totality, the in-process kill–resume
#      matrix over every ORIGIN_CRASH_AT point class at 1 and 8 threads)
#      replayed under the ASan build, so every recovery path (torn-temp
#      sweep, journal tail truncation, quarantine + rebuild) runs with the
#      allocator instrumented
#   9. UBSan preset build + full ctest (-fsanitize=undefined plus
#      float-cast-overflow, which GCC leaves out of `undefined`)
#  10. TSan preset build + the concurrency suites (thread pool and lane
#      stress + pipeline determinism + fault-schedule determinism + the
#      overload ledger 1-vs-8-thread determinism checks + the kill–resume
#      matrix, whose analyze kills at 8 threads return with both digest
#      lanes in flight, and whose generate.encode / manifest.append kills
#      return with the next shard's page loads in flight on the loader
#      lane + the non-contiguous resume, whose loader lane prefetches
#      across a reused shard) with ORIGIN_THREADS=8, so every shard path
#      and the lanes' error path run contended under the race detector
#  11. perf: Release build of the perf + ablation benches; each makes its
#      in-run checks, gates one metric against its committed BENCH_*.json
#      at the repo root (the gate table in bench/report.h), refreshes that
#      copy only on a passing run, and exits non-zero when either fails
#
# Usage: scripts/check.sh [--quick]
#   --quick   tier-1, perfbench tests and analyze only; skip the sanitizer
#             rebuilds and perf leg.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "==> [1/11] tier-1 build + ctest (analyze + fuzz replays included)"
run_suite build

echo "==> [2/11] perfbench tests (library digest vs perfbench's text digest)"
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$JOBS"
ctest --test-dir build-perfbench --output-on-failure --no-tests=error \
  -j "$JOBS"

echo "==> [3/11] origin_analyze contract gate (full src/ tree, drift-checked)"
./build/tools/analyze/origin_analyze --root=. \
  --waivers=tools/analyze/waivers.txt \
  --baseline=analyze_findings.json \
  --json=analyze_findings.json src
echo "findings artifact: analyze_findings.json (commit to accept new waivers)"

echo "==> [4/11] clang-tidy (parser directories)"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/h2/*.cc' 'src/hpack/*.cc' 'src/web/*.cc' 'src/util/*.cc' |
    xargs clang-tidy -p build --quiet
else
  echo "clang-tidy not found; skipping (advisory on this image)"
fi

if [[ "$QUICK" == "1" ]]; then
  echo "==> --quick: skipping sanitizer presets"
  exit 0
fi

echo "==> [5/11] AddressSanitizer preset"
run_suite build-asan -DORIGIN_SANITIZE=address

echo "==> [6/11] fault matrix (wire suites at 0/5/20% injected faults, ASan)"
for rate in 0 0.05 0.20; do
  echo "--- ORIGIN_FAULT_RATE=$rate"
  ORIGIN_FAULT_RATE="$rate" ctest --test-dir build-asan --output-on-failure \
    -j "$JOBS" -R 'FaultInjection|FaultDeterminism|KillSwitch|WireClient|Http2Server|Middleboxes'
done

echo "==> [7/11] overload abuse matrix (ORIGIN_ABUSE_MIX sweep, ASan)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'Overload|Admission'
for mix in 'rapid_reset=6' 'slowloris=4' \
           'header_bomb=2,ping_flood=2,settings_flood=2'; do
  echo "--- ORIGIN_ABUSE_MIX=$mix"
  ORIGIN_ABUSE_MIX="$mix" ctest --test-dir build-asan --output-on-failure \
    -R 'Overload.EnvAbuseMatrixShedsEveryAttackerAndServesTheRest'
done

echo "==> [8/11] kill–resume matrix (crash-consistency suites, ASan)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
  -R 'CrashResume|DurableFile|Manifest|FuzzRegressionManifest|fuzz_manifest_replay'

echo "==> [9/11] UndefinedBehaviorSanitizer preset"
run_suite build-ubsan -DORIGIN_SANITIZE=undefined

echo "==> [10/11] ThreadSanitizer preset (concurrency suites, 8 threads)"
cmake -B build-tsan -S . -DORIGIN_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
ORIGIN_THREADS=8 ctest --test-dir build-tsan --output-on-failure \
  -R 'ThreadPool|PipelineDeterminism|FaultDeterminism|BitIdenticalAcrossThreadCounts|CrashResumeTest.KillResumeMatrixIsBitIdentical|CrashResumeTest.ResumeRebuildsNonContiguousShards'

echo "==> [11/11] perf gates (Release benches, repo-root BENCH_*.json)"
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$JOBS" \
  --target bench_perf_pipeline bench_perf_model bench_perf_corpus \
           bench_ablation_overload bench_ablation_faults \
           bench_ablation_crash
./build-perf/bench/bench_perf_pipeline
./build-perf/bench/bench_perf_model
./build-perf/bench/bench_perf_corpus
./build-perf/bench/bench_ablation_overload
./build-perf/bench/bench_ablation_faults
./build-perf/bench/bench_ablation_crash

echo "==> all checks passed"
