// Server-side passive measurement pipeline (paper §5.2).
//
// The production pipeline sampled 1% of HTTP requests and, because nothing
// in TLS or HTTP marks a request as "coalesced", was extended with exactly
// three signals: (i) a flag bit set when the HTTP Host differs from the
// TLS SNI, (ii) the treatment label, and (iii) the request's arrival order
// on its connection. Coalescing is then counted from flagged requests with
// arrival order >= 2, deduplicated per connection. This class reimplements
// that method over simulated request logs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "web/har.h"

namespace origin::measure {

enum class Treatment { kControl, kExperiment };

struct LogRecord {
  std::uint64_t connection_id = 0;
  std::string sni;        // hostname the connection was opened for
  std::string host;       // HTTP Host of this request
  bool host_differs_sni = false;  // the §5.2 flag bit
  Treatment treatment = Treatment::kControl;
  std::uint32_t arrival_order = 0;  // 1-based within the connection
  std::uint64_t day = 0;            // observation day (longitudinal axis)
};

class PassivePipeline {
 public:
  explicit PassivePipeline(double sample_rate = 0.01,
                           std::uint64_t seed = 0xCD4)
      : sample_rate_(sample_rate), seed_(seed) {}

  // Feeds one page load's requests to the third-party `domain`. The
  // referrer (base hostname) determines the treatment group, as in the
  // paper's Referer-based attribution.
  //
  // Sampling is a pure hash of (seed, connection id, arrival order, day,
  // treatment) rather than a stateful RNG draw, so whether a request is
  // sampled never depends on how many requests other workers observed
  // first — the property that lets sharded aggregation stay bit-identical
  // to the serial pipeline.
  void observe(const web::PageLoad& load, const std::string& domain,
               Treatment treatment, std::uint64_t day);

  // One page load awaiting aggregation (observe_batch input).
  struct Observation {
    const web::PageLoad* load = nullptr;
    Treatment treatment = Treatment::kControl;
    std::uint64_t day = 0;
  };
  // Aggregates a batch on a thread pool (threads: 0 = ORIGIN_THREADS
  // default, 1 = serial fallback). Per-load deltas are computed in parallel
  // and applied serially in input order, so records land in exactly the
  // order the serial observe() loop would produce.
  void observe_batch(const std::vector<Observation>& observations,
                     const std::string& domain, std::size_t threads = 1);

  // Folds another pipeline's aggregates into this one (record order:
  // ours first, then theirs). Both must share sample_rate and seed so the
  // merged result equals a single pipeline having observed both streams.
  void merge(const PassivePipeline& other);

  // Drops every record and counter, keeping sample_rate and seed. A
  // crashed-and-resumed streamed replay restarts its sweep from shard 0;
  // resetting here makes the re-observation indistinguishable from a
  // single uninterrupted stream (dataset::ShardObserver::on_stream_restart).
  void reset();

  // New TLS connections to the third party per treatment (per day).
  std::uint64_t new_connections(Treatment treatment) const;
  std::uint64_t new_connections_on_day(Treatment treatment,
                                       std::uint64_t day) const;
  // Coalesced connections counted by the flag-bit method: flagged requests
  // with arrival order >= 2, each connection counted once.
  std::uint64_t coalesced_connections(Treatment treatment) const;
  std::uint64_t sampled_records() const { return records_.size(); }
  const std::vector<LogRecord>& records() const { return records_; }

  // §5.2 headline: reduction in the rate of new TLS connections to the
  // third party, experiment relative to control.
  double reduction_vs_control() const;

 private:
  // Everything one observe() call adds to the pipeline. Deltas are pure
  // functions of (load, domain, treatment, day), which is what makes the
  // parallel batch path exact.
  // Accumulation is keyed and commutative (+= per key), so the flat map's
  // insertion-dependent iteration order never leaks into results.
  using DayConnections =
      util::FlatMap<std::pair<int, std::uint64_t>, std::uint64_t>;

  struct Delta {
    std::vector<LogRecord> records;
    DayConnections day_connections;
    std::uint64_t control_connections = 0;
    std::uint64_t experiment_connections = 0;
  };
  Delta observe_one(const web::PageLoad& load, const std::string& domain,
                    Treatment treatment, std::uint64_t day) const;
  void apply(Delta&& delta);
  bool sampled(std::uint64_t connection_id, std::uint32_t arrival_order,
               Treatment treatment, std::uint64_t day) const;

  double sample_rate_;
  std::uint64_t seed_;
  std::vector<LogRecord> records_;
  // Full (unsampled) connection counts, as the CDN's connection logs see
  // every handshake even when request logs are sampled.
  DayConnections day_connections_;
  std::uint64_t control_connections_ = 0;
  std::uint64_t experiment_connections_ = 0;
};

}  // namespace origin::measure
