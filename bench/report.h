// The one report path for the benches that keep a committed baseline.
//
// A bench builds its BENCH_<name>.json document, runs its own in-run checks,
// and hands both to publish() together with its row of the gate table
// below. publish() stamps the host, writes the file to the working
// directory, gates one metric against the committed copy at the repo root,
// and refreshes that copy only when the run passed, the gate held, and the
// row's coverage rule allows it. A missing or unparsable committed copy is
// no baseline: the gate is skipped and the copy is written.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "util/json.h"
#include "util/result.h"

namespace origin::bench {

// Reads a gate metric from a BENCH_*.json document, fresh or committed;
// nullopt when the document lacks it.
using Metric = std::optional<double> (*)(const util::Json& doc);

enum class Better { kHigher, kLower };

// One row of the gate table.
struct Gate {
  const char* name;  // the file is BENCH_<name>.json
  const char* metric_name = nullptr;
  Metric metric = nullptr;  // nullptr: no regression gate
  // The run fails when the fresh metric is worse than the limit
  // committed * factor + points.
  Better better = Better::kHigher;
  double factor = 1.0;
  double points = 0.0;
  // A top-level count. When set, the committed copy is refreshed only if
  // the fresh count is at least the committed one, so a smaller run gates
  // against a larger baseline without replacing it.
  const char* coverage = nullptr;
};

inline std::optional<double> number(const util::Json& value) {
  if (!value.is_number()) return std::nullopt;
  return value.as_double();
}

// The gate table: one row per bench that writes a committed baseline.
inline constexpr Gate kModelGate{
    .name = "model",
    .metric_name = "fused_batch.pages_per_sec",
    .metric = [](const util::Json& doc) {
      return number(doc["fused_batch"]["pages_per_sec"]);
    },
    .factor = 0.9};
inline constexpr Gate kCorpusGate{
    .name = "corpus",
    .metric_name = "streamed.sites_per_sec",
    .metric = [](const util::Json& doc) {
      return number(doc["streamed"]["sites_per_sec"]);
    },
    .factor = 0.9,
    .coverage = "eligible_sites"};
inline constexpr Gate kCrashGate{
    .name = "crash",
    .metric_name = "max_recovery_overhead_pct",
    .metric = [](const util::Json& doc) {
      return number(doc["max_recovery_overhead_pct"]);
    },
    .better = Better::kLower,
    .points = 10.0,
    .coverage = "sites"};
inline constexpr Gate kPipelineGate{.name = "pipeline"};

inline bool write_text(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  out << contents;
  if (out) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

inline util::Result<util::Json> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::make_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return util::Json::parse(buffer.str());
}

// Which machine and build produced a report; no gate reads it.
inline util::Json host_stamp() {
  util::Json::Object host;
  host["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  host["compiler"] = ORIGIN_COMPILER;
  host["build_type"] = ORIGIN_BUILD_TYPE;
  return util::Json(std::move(host));
}

// Returns the bench's exit status: 0 when `passed` (the bench's own in-run
// checks), the gate held and every file was written.
inline int publish(util::Json doc, bool passed, const Gate& gate,
                   const std::string& committed_dir = ORIGIN_REPO_ROOT) {
  doc["host"] = host_stamp();
  const std::string rendered = doc.dump(2) + "\n";
  const std::string file = std::string("BENCH_") + gate.name + ".json";
  if (!write_text(file, rendered)) return 1;
  std::printf("wrote %s\n", file.c_str());

  const std::string committed_path = committed_dir + "/" + file;
  const auto read = read_json(committed_path);
  const util::Json committed = read.ok() ? *read : util::Json();
  const util::Json& fresh = doc;
  bool ok = passed;
  if (gate.metric != nullptr) {
    const auto now = gate.metric(fresh);
    const auto before = gate.metric(committed);
    if (now && before) {
      const double limit = *before * gate.factor + gate.points;
      if (gate.better == Better::kHigher ? *now < limit : *now > limit) {
        std::fprintf(stderr,
                     "FAIL: %s regressed vs the committed baseline "
                     "(%g -> %g, limit %g); leaving %s untouched\n",
                     gate.metric_name, *before, *now, limit,
                     committed_path.c_str());
        ok = false;
      }
    }
  }
  const bool covers =
      gate.coverage == nullptr ||
      fresh[gate.coverage].double_or(0) >= committed[gate.coverage].double_or(0);
  if (ok && covers) {
    if (!write_text(committed_path, rendered)) return 1;
    std::printf("wrote %s\n", committed_path.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace origin::bench
