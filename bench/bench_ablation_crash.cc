// Kill–resume chaos supervisor for the crash-consistent streaming corpus
// (DESIGN.md §15). Re-execs itself as a child per leg so every injected
// crash is a real process death (_exit, no destructors), exactly what
// ORIGIN_CRASH_AT produces in the wild:
//
//   1. baseline — an uninterrupted child run records the golden digests
//      and the wall-clock every recovery leg is charged against;
//   2. kill–resume matrix — for every crash-point class (shard load,
//      encode, the torn/complete/committed windows inside the durable
//      write, the manifest append, per-shard analyze) a child is killed at
//      that boundary (exit code util::crash::kCrashExitCode) and a second
//      child resumes with ORIGIN_RESUME=1. Every resume must reproduce the
//      baseline StreamStats digests bit-identically, reuse exactly the
//      shards committed before the kill, and regenerate, quarantine and
//      reset nothing;
//   3. corruption — after a clean kill at the analyze boundary one shard
//      file gets a byte flipped on disk; the resume must quarantine it
//      (never read it as data), rebuild it deterministically, and still
//      match the baseline digests.
//
// Every child runs at the baseline's 8 threads, so each row's recovery
// overhead (kill wall + resume wall vs the uninterrupted baseline) compares
// like with like; it is reported, not gated. Any digest mismatch,
// unexpected child exit, recovery count off its exact value (a FAIL line
// names the row and field), or missed quarantine is fatal. Emits
// BENCH_crash.json through bench/report.h.
//
// Flags: --sites (default 20,000; the matrix needs 3 shards, and a
// smaller corpus fails after the baseline with one FAIL line) and --dir
// (spill dir, default bench_crash_spill).
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dataset/corpus.h"
#include "measure/stream.h"
#include "report.h"
#include "util/crash.h"
#include "util/json.h"

namespace {

using origin::util::Json;

// Every child, killed or not, runs at this many threads.
constexpr std::size_t kThreads = 8;

// A resume after this kill reuses every shard the baseline wrote.
constexpr std::uint64_t kEveryShard = ~std::uint64_t{0};

struct CrashPoint {
  const char* point;
  std::uint64_t k;  // k-th hit; durable.* counts the manifest-header write
  std::uint64_t reused;  // shards committed before the kill
};

// Each generate-side k leaves shards 0 and 1 committed before the kill (the
// fresh manifest header is durable write #1, so the durable.* windows fire
// on shard 2's write at hit 4). The analyze kill comes after every shard is
// committed. A kill armed past the last shard never fires, so the matrix
// needs this many shards.
constexpr int kMatrixShards = 3;
constexpr CrashPoint kMatrix[] = {
    {"generate.load", 3, 2},       {"generate.encode", 3, 2},
    {"durable.mid_write", 4, 2},   {"durable.pre_rename", 4, 2},
    {"durable.post_rename", 4, 2}, {"manifest.append", 3, 2},
    {"analyze.shard", 2, kEveryShard},
};

// --- child ----------------------------------------------------------------

// One full streamed run over the spill dir. ORIGIN_CRASH_AT (set by the
// supervisor in the child's environment) kills it at the armed boundary;
// ORIGIN_RESUME=1 makes it replay the journal first. On success the
// StreamStats digests and RecoveryStats land in `out` as JSON.
int run_child(std::size_t sites, std::uint64_t seed, const std::string& dir,
              const std::string& out) {
  using namespace origin;
  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = sites;
  corpus_options.seed = seed;
  corpus_options.threads = kThreads;
  dataset::Corpus corpus(corpus_options);

  dataset::StreamingOptions options;
  options.loader = bench::chrome_collect_options().loader;
  options.threads = kThreads;
  options.spill_dir = dir;
  measure::PassiveShardObserver observer("bench.example", 0.05, 0xCD4, 1);
  options.observer = &observer;

  dataset::StreamingCorpus streaming(corpus, options);
  auto stats = streaming.run();
  if (!stats.ok()) {
    std::fprintf(stderr, "child run failed: %s\n",
                 stats.error().message.c_str());
    return 1;
  }
  const auto& recovery = streaming.recovery();

  char digest[32];
  Json::Object doc;
  doc["sites"] = static_cast<std::uint64_t>(stats->sites);
  doc["pages"] = static_cast<std::uint64_t>(stats->pages);
  doc["entries"] = static_cast<std::uint64_t>(stats->entries);
  doc["shards"] = static_cast<std::uint64_t>(stats->shards);
  doc["snapshot_bytes"] = stats->snapshot_bytes;
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(stats->measured_digest));
  doc["measured_digest"] = digest;
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(stats->reconstructed_digest));
  doc["reconstructed_digest"] = digest;
  doc["passive_records"] =
      static_cast<std::uint64_t>(observer.pipeline().records().size());
  doc["shards_reused"] = static_cast<std::uint64_t>(recovery.shards_reused);
  doc["shards_regenerated"] =
      static_cast<std::uint64_t>(recovery.shards_regenerated);
  doc["shards_quarantined"] =
      static_cast<std::uint64_t>(recovery.shards_quarantined);
  doc["manifest_resets"] = static_cast<std::uint64_t>(recovery.manifest_resets);
  doc["manifest_records_replayed"] =
      static_cast<std::uint64_t>(recovery.manifest_records_replayed);
  doc["stale_temps_swept"] =
      static_cast<std::uint64_t>(recovery.stale_temps_swept);
  doc["stale_shards_removed"] =
      static_cast<std::uint64_t>(recovery.stale_shards_removed);
  return bench::write_text(out, Json(std::move(doc)).dump(2) + "\n") ? 0 : 1;
}

// --- supervisor -----------------------------------------------------------

// Runs one child: the inherited environment plus `env_pair` ("NAME=value",
// replacing any inherited NAME; empty adds nothing), stdout and stderr
// into `log`. No shell: every path reaches the child as one argv element,
// whatever it holds. Returns the child's exit status, or -1 when it could
// not start or died without exiting (signal).
int spawn_child(const std::string& self, const std::string& env_pair,
                std::size_t sites, std::uint64_t seed, const std::string& dir,
                const std::string& out, const std::string& log) {
  std::vector<std::string> args = {self,    "--child",
                                   "--sites", std::to_string(sites),
                                   "--seed",  std::to_string(seed),
                                   "--dir",   dir,
                                   "--out",   out};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::string pair = env_pair;
  const std::string name = pair.substr(0, pair.find('=') + 1);
  std::vector<char*> envp;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (name.empty() || std::strncmp(*entry, name.c_str(), name.size()) != 0) {
      envp.push_back(*entry);
    }
  }
  if (!pair.empty()) envp.push_back(pair.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = 0;
  const int spawned = posix_spawnp(&pid, self.c_str(), &actions, nullptr,
                                   argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (!WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

void dump_log(const std::string& log) {
  std::ifstream in(log);
  std::string line;
  while (std::getline(in, line)) std::fprintf(stderr, "  child| %s\n",
                                              line.c_str());
}

bool same_digests(const Json& a, const Json& b) {
  for (const char* key : {"measured_digest", "reconstructed_digest",
                          "passive_records", "sites", "pages", "entries",
                          "shards", "snapshot_bytes"}) {
    if (a[key].dump() != b[key].dump()) return false;
  }
  return true;
}

// Flips one byte in the middle of a spilled shard file.
bool flip_shard_byte(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return false;
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size <= 0) return false;
  const std::streamoff at = size / 2;
  file.seekg(at);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x41);
  file.seekp(at);
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace origin;

  bool child = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--child") == 0) child = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out = argv[++i];
  }
  const auto args =
      bench::Args::parse(argc, argv, {.dir = "bench_crash_spill"});
  if (child) return run_child(args.sites, args.seed, args.dir, out);

  const std::string& spill_dir = args.dir;
  bench::print_header(
      "Kill–resume chaos matrix: crash-consistent streaming corpus",
      "engineering bench (no paper figure); DESIGN.md §15 durability "
      "contract",
      args);

  const std::string self = argv[0];
  const std::string child_out = spill_dir + ".child.json";
  const std::string child_log = spill_dir + ".child.log";
  int exit_code = 0;

  // Leg 1: uninterrupted baseline.
  std::filesystem::remove_all(spill_dir);
  auto t0 = std::chrono::steady_clock::now();
  int rc = spawn_child(self, "", args.sites, args.seed, spill_dir,
                       child_out, child_log);
  const double baseline_ms = bench::ms_since(t0);
  if (rc != 0) {
    std::fprintf(stderr, "FAIL: baseline child exited %d\n", rc);
    dump_log(child_log);
    return 1;
  }
  auto baseline = bench::read_json(child_out);
  if (!baseline.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", baseline.error().message.c_str());
    return 1;
  }
  std::printf("baseline: %.0f sites  %.0f shards  %s/%s  %.1f s\n\n",
              (*baseline)["sites"].double_or(0),
              (*baseline)["shards"].double_or(0),
              (*baseline)["measured_digest"].string_or("?").c_str(),
              (*baseline)["reconstructed_digest"].string_or("?").c_str(),
              baseline_ms / 1000.0);
  if (const double shards = (*baseline)["shards"].double_or(0);
      shards < kMatrixShards) {
    std::fprintf(stderr,
                 "FAIL: --sites %zu builds %.0f shard(s); the crash matrix "
                 "needs %d\n",
                 args.sites, shards, kMatrixShards);
    std::filesystem::remove_all(spill_dir);
    std::remove(child_out.c_str());
    std::remove(child_log.c_str());
    return 1;
  }

  // Leg 2: the kill–resume matrix.
  Json::Array matrix;
  double max_overhead = 0.0;
  for (const auto& point : kMatrix) {
    std::filesystem::remove_all(spill_dir);

    const std::string crash_env = std::string("ORIGIN_CRASH_AT=") +
                                  point.point + ":" +
                                  std::to_string(point.k);
    t0 = std::chrono::steady_clock::now();
    rc = spawn_child(self, crash_env, args.sites, args.seed, spill_dir,
                     child_out, child_log);
    const double kill_ms = bench::ms_since(t0);
    if (rc != util::crash::kCrashExitCode) {
      std::fprintf(stderr, "FAIL: %s child exited %d, want %d (crash)\n",
                   point.point, rc, util::crash::kCrashExitCode);
      dump_log(child_log);
      exit_code = 1;
      continue;
    }

    t0 = std::chrono::steady_clock::now();
    rc = spawn_child(self, "ORIGIN_RESUME=1", args.sites, args.seed, spill_dir,
                     child_out, child_log);
    const double resume_ms = bench::ms_since(t0);
    if (rc != 0) {
      std::fprintf(stderr, "FAIL: %s resume exited %d\n", point.point, rc);
      dump_log(child_log);
      exit_code = 1;
      continue;
    }
    auto resumed = bench::read_json(child_out);
    if (!resumed.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", resumed.error().message.c_str());
      exit_code = 1;
      continue;
    }
    const bool identical = same_digests(*baseline, *resumed);
    const Json& reused = (*resumed)["shards_reused"];
    const Json& regenerated = (*resumed)["shards_regenerated"];
    const Json& quarantined = (*resumed)["shards_quarantined"];
    const Json& resets = (*resumed)["manifest_resets"];
    const std::string name = point.point;
    const bool recovered = bench::pins_hold({
        {name + " shards_reused", reused,
         point.reused == kEveryShard ? (*baseline)["shards"]
                                     : Json(point.reused)},
        {name + " shards_regenerated", regenerated, 0},
        {name + " shards_quarantined", quarantined, 0},
        {name + " manifest_resets", resets, 0},
    });
    const double overhead =
        baseline_ms <= 0
            ? 0.0
            : (kill_ms + resume_ms - baseline_ms) * 100.0 / baseline_ms;
    if (overhead > max_overhead) max_overhead = overhead;
    std::printf(
        "%-22s k=%llu  kill %6.1f s  resume %6.1f s  overhead %+6.1f%%"
        "  reused %.0f  %s\n",
        point.point, static_cast<unsigned long long>(point.k),
        kill_ms / 1000.0, resume_ms / 1000.0, overhead, reused.double_or(0),
        identical && recovered ? "identical" : "MISMATCH");
    if (!identical || !recovered) exit_code = 1;

    Json::Object row;
    row["point"] = point.point;
    row["k"] = point.k;
    row["kill_ms"] = kill_ms;
    row["resume_ms"] = resume_ms;
    row["recovery_overhead_pct"] = overhead;
    row["identical"] = identical;
    row["shards_reused"] = reused;
    row["shards_regenerated"] = regenerated;
    row["shards_quarantined"] = quarantined;
    row["manifest_resets"] = resets;
    matrix.emplace_back(std::move(row));
  }

  // Leg 3: corruption — clean kill at the analyze boundary leaves every
  // shard journaled on disk; flip one byte and the resume must quarantine
  // the file (never read it as data), rebuild, and match the baseline.
  Json::Object corruption;
  {
    std::filesystem::remove_all(spill_dir);
    rc = spawn_child(self, "ORIGIN_CRASH_AT=analyze.shard:1", args.sites,
                     args.seed, spill_dir, child_out, child_log);
    bool ok = rc == util::crash::kCrashExitCode;
    if (ok) ok = flip_shard_byte(spill_dir + "/shard_000001.ocs");
    if (ok) {
      rc = spawn_child(self, "ORIGIN_RESUME=1", args.sites, args.seed,
                       spill_dir, child_out, child_log);
      ok = rc == 0;
      if (!ok) dump_log(child_log);
    }
    if (ok) {
      auto resumed = bench::read_json(child_out);
      ok = resumed.ok() && same_digests(*baseline, *resumed) &&
           (*resumed)["shards_quarantined"].double_or(0) == 1 &&
           (*resumed)["manifest_resets"].double_or(-1) == 0;
      if (resumed.ok()) {
        corruption["shards_quarantined"] =
            (*resumed)["shards_quarantined"].double_or(0);
        corruption["identical"] = same_digests(*baseline, *resumed);
      }
    }
    corruption["recovered"] = ok;
    std::printf("%-22s flip 1 byte, resume: %s\n", "corruption",
                ok ? "quarantined + identical" : "MISMATCH");
    if (!ok) exit_code = 1;
  }
  std::filesystem::remove_all(spill_dir);
  std::remove(child_out.c_str());
  std::remove(child_log.c_str());

  std::printf("\nmax recovery overhead: %.1f%% of the %.1f s baseline\n",
              max_overhead, baseline_ms / 1000.0);

  Json::Object doc;
  doc["bench"] = "crash";
  doc["seed"] = args.seed;
  doc["sites"] = args.sites;
  doc["threads"] = kThreads;
  doc["eligible_sites"] = (*baseline)["sites"].double_or(0);
  doc["shards"] = (*baseline)["shards"].double_or(0);
  doc["baseline_wall_ms"] = baseline_ms;
  doc["measured_digest"] = (*baseline)["measured_digest"].string_or("?");
  doc["reconstructed_digest"] =
      (*baseline)["reconstructed_digest"].string_or("?");
  doc["matrix"] = Json(std::move(matrix));
  doc["corruption"] = Json(std::move(corruption));
  doc["max_recovery_overhead_pct"] = max_overhead;
  doc["all_identical"] = exit_code == 0;
  return bench::publish(Json(std::move(doc)), exit_code == 0, "crash");
}
