#!/usr/bin/env bash
# CI entrypoint: every build, test, analysis and bench leg of the repo. No
# leg writes a tracked file.
#
# Runs, in order:
#   1. tier-1: default build + full ctest (includes the origin_analyze
#      gates and the deterministic fuzz-corpus replays). The build treats
#      every compiler warning as an error (CMAKE_COMPILE_WARNING_AS_ERROR,
#      CMake 3.24+), so a new warning fails the leg instead of scrolling by
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
#      land in build/analyze_findings.json, where the default build's
#      analyze target also writes them (copying that file to the repo root
#      and committing it is how the baseline is updated)
#   4. clang-tidy over the parser directories, when clang-tidy is on PATH
#      (advisory skip otherwise — the pinned CI image is gcc-only)
#   5. ASan preset build + full ctest
#   6. fault matrix: FaultInjection.EnvFaultMatrixAlwaysTerminates, the
#      one test that reads ORIGIN_FAULT_RATE, replayed under the ASan build
#      at injected fault rates 0 / 5 / 20%, so every degradation path
#      (timeout, backoff, avoid-list, re-dispatch) runs at each rate with
#      the allocator instrumented (leg 5 already ran the rest of the wire
#      suites under ASan)
#   7. overload abuse matrix: the server-side overload suites replayed
#      under the ASan build across ORIGIN_ABUSE_MIX attacker mixes, so
#      every shed path (rapid-reset, header bomb, PING/SETTINGS floods,
#      slowloris reaping, admission refusal, drain) runs with the
#      allocator instrumented under each mix
#   8. kill–resume matrix: the crash-consistency suites (durable-file
#      commit windows, OCM1 manifest totality, the in-process kill–resume
#      matrix over every ORIGIN_CRASH_AT point class, each killed at 1 and
#      8 threads and resumed at 1 and 8)
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
#  11. paper run + engineering benches: Release build of bench_paper, the
#      perf benches and the crash ablation, warnings as errors as in leg 1
#      (Release inlining finds some that leg 1 cannot). bench_paper's
#      default run must equal the committed bench_output.txt byte for
#      byte (the Repro column of EXPERIMENTS.md quotes that file). That
#      diff also pins every number of the fault and overload ablations,
#      and their in-run checks fail the leg through bench_paper's exit
#      status. Then the four engineering benches run at their default
#      sizes from inside build-perf, so their BENCH_*.json reports and
#      spill directories land there. Each exits
#      non-zero when an in-run check fails: golden equality, digests, the
#      exact pins on the work it did (bench/report.h), or the model
#      bench's fused >= 3x baseline. No wall-clock number is gated here;
#      throughput is compared in the repository benchmark's back-to-back
#      parent/change pairs
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
run_suite build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

echo "==> [2/11] perfbench tests (library digest vs perfbench's text digest)"
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-perfbench -j "$JOBS"
ctest --test-dir build-perfbench --output-on-failure --no-tests=error \
  -j "$JOBS"

echo "==> [3/11] origin_analyze contract gate (full src/ tree, drift-checked)"
./build/tools/analyze/origin_analyze --root=. \
  --waivers=tools/analyze/waivers.txt \
  --baseline=analyze_findings.json \
  --json=build/analyze_findings.json src
echo "findings artifact: build/analyze_findings.json" \
  "(copy it to the repo root and commit it to accept new waivers)"

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

echo "==> [6/11] fault matrix (ORIGIN_FAULT_RATE sweep, ASan)"
for rate in 0 0.05 0.20; do
  echo "--- ORIGIN_FAULT_RATE=$rate"
  ORIGIN_FAULT_RATE="$rate" ctest --test-dir build-asan --output-on-failure \
    -R 'FaultInjection.EnvFaultMatrixAlwaysTerminates'
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

echo "==> [11/11] paper run + engineering benches (Release, in-run checks)"
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build-perf -j "$JOBS" \
  --target bench_paper bench_perf_pipeline bench_perf_model \
           bench_perf_corpus bench_ablation_crash
./build-perf/bench/bench_paper > build-perf/bench_output.txt
diff -u bench_output.txt build-perf/bench_output.txt
# From inside build-perf, so no report or spill directory lands in the
# tree. A passing default run from the repo root rewrites the committed
# BENCH_<name>.json instead: that is how a record is refreshed.
cd build-perf
./bench/bench_perf_pipeline
./bench/bench_perf_model
./bench/bench_perf_corpus
./bench/bench_ablation_crash

echo "==> all checks passed"
