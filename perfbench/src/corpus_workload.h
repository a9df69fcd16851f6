// The corpus workloads: dataset::StreamingCorpus::run over a synthetic
// corpus, on the write path (corpus-stream: fresh spill directory) and the
// read path (corpus-replay: every shard resumed from a primed directory
// with a passive-measurement observer attached).
//
// Three ways to produce a CorpusOutput for the same configuration:
//   * run_streaming — the public StreamingCorpus::run the workloads time;
//   * reference_output — dataset::run_materialized plus shard CRCs
//     re-encoded from the materialized pages, the independent reference
//     every timed run is checked against;
//   * run_traced — the pipeline rebuilt from the same public calls
//     StreamingCorpus makes, in the same order, with a span around each
//     call. It must reproduce run_streaming's output bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "measure/stream.h"
#include "trace.h"
#include "util/result.h"

namespace perfbench {

struct CorpusConfig {
  std::uint64_t seed = 42;
  std::size_t sites = 1'000;  // synthesized sites; ~63% are eligible
  std::size_t threads = 4;
  std::size_t sites_per_shard = 128;
  std::string spill_dir;
};

// Everything a run must reproduce: the StreamStats digests, §4.2 counts
// and PLT sums; the CRC-64 of every shard in index order; and, when an
// observer rode along, the passive §5.2 aggregates.
struct CorpusOutput {
  origin::dataset::StreamStats stats;
  std::vector<std::uint64_t> shard_crcs;
  bool has_passive = false;
  origin::measure::PassiveStreamStats passive;
};

// Field-by-field equality; on mismatch names the first differing field.
bool same_output(const CorpusOutput& a, const CorpusOutput& b,
                 std::string* why);
// Chained CRC-64 over the shard CRCs (one value to print and diff).
std::uint64_t crc_chain(const std::vector<std::uint64_t>& shard_crcs);

std::unique_ptr<origin::dataset::Corpus> build_corpus(
    const CorpusConfig& config);

// The §3 collection configuration (Chrome v88-equivalent loader).
origin::dataset::StreamingOptions streaming_options(const CorpusConfig& config);

// The passive observer the replay workload attaches.
std::unique_ptr<origin::measure::PassiveShardObserver> make_observer(
    const origin::dataset::Corpus& corpus, const CorpusConfig& config);

struct StreamingRun {
  CorpusOutput output;
  origin::dataset::RecoveryStats recovery;
  std::vector<origin::dataset::ShardInfo> shards;
};

// One StreamingCorpus::run. `observer` may be null.
[[nodiscard]] origin::util::Result<StreamingRun> run_streaming(
    origin::dataset::Corpus& corpus,
    const origin::dataset::StreamingOptions& options,
    origin::measure::PassiveShardObserver* observer);

[[nodiscard]] origin::util::Result<CorpusOutput> reference_output(
    origin::dataset::Corpus& corpus, const CorpusConfig& config,
    bool with_observer);

struct TracedCorpusRun {
  CorpusOutput output;
  std::uint64_t digest_bytes = 0;  // HAR JSON bytes hashed, both passes
};

// The traced pipeline. With `primed` null it runs the write path into
// config.spill_dir (load, append, encode, CRC, write) and then the read
// path; with `primed` set it runs only the read path over those shards,
// as a fully resumed run does. It skips the manifest journal, which
// StreamingCorpus writes for crash recovery. `observer` may be null.
[[nodiscard]] origin::util::Result<TracedCorpusRun> run_traced(
    origin::dataset::Corpus& corpus, const CorpusConfig& config,
    const std::vector<origin::dataset::ShardInfo>* primed,
    origin::measure::PassiveShardObserver* observer, Tracer& tracer);

}  // namespace perfbench
