#include "measure/passive.h"

#include <algorithm>

#include "util/fnv.h"
#include "util/hot_path.h"
#include "util/thread_pool.h"

namespace origin::measure {

namespace {

// Per-thread scratch for observe_one's per-connection stream rebuild:
// cleared (capacity kept) per call, so batch observation over a corpus
// does zero steady-state allocation for the bookkeeping maps.
struct ObserveScratch {
  origin::util::FlatMap<std::uint64_t, std::uint32_t> arrival_counters;
  // Pointers into the observed load's entry hostnames; the load outlives
  // the call and the map is cleared on entry.
  origin::util::FlatMap<std::uint64_t, const std::string*> connection_sni;
};

ObserveScratch& local_scratch() {
  static thread_local ObserveScratch scratch;
  return scratch;
}

}  // namespace

ORIGIN_HOT bool PassivePipeline::sampled(std::uint64_t connection_id,
                              std::uint32_t arrival_order,
                              Treatment treatment, std::uint64_t day) const {
  // Keyed hash -> uniform [0, 1) from the top 53 bits. At rate 1.0 every
  // record passes (the value is strictly below 1.0).
  std::uint64_t h = origin::util::fnv1a64_mix(seed_, 0x5A3B1EULL);
  h = origin::util::fnv1a64_mix(h, connection_id);
  h = origin::util::fnv1a64_mix(
      h, (static_cast<std::uint64_t>(arrival_order) << 1) |
             (treatment == Treatment::kControl ? 0u : 1u));
  h = origin::util::fnv1a64_mix(h, day);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < sample_rate_;
}

ORIGIN_HOT PassivePipeline::Delta PassivePipeline::observe_one(const web::PageLoad& load,
                                                    const std::string& domain,
                                                    Treatment treatment,
                                                    std::uint64_t day) const {
  Delta delta;
  // Reconstruct per-connection request streams for this page load.
  ObserveScratch& scratch = local_scratch();
  scratch.arrival_counters.clear();
  scratch.connection_sni.clear();
  for (const auto& entry : load.entries) {
    if (entry.connection_id == 0) continue;
    // First request on a connection names its SNI.
    const std::string* sni =
        *scratch.connection_sni.emplace(entry.connection_id, &entry.hostname)
             .first;
    const std::uint32_t order =
        ++scratch.arrival_counters[entry.connection_id];
    if (entry.hostname != domain) continue;

    // Connection accounting is complete (handshake logs are unsampled).
    if (entry.new_tls_connection) {
      ++(treatment == Treatment::kControl ? delta.control_connections
                                          : delta.experiment_connections);
      ++delta
            .day_connections[{treatment == Treatment::kControl ? 0 : 1, day}];
    }
    // Request logs are sampled at `sample_rate_`.
    if (!sampled(entry.connection_id, order, treatment, day)) continue;
    LogRecord record;
    record.connection_id = entry.connection_id;
    record.sni = *sni;
    record.host = entry.hostname;
    record.host_differs_sni = *sni != entry.hostname;
    record.treatment = treatment;
    record.arrival_order = order;
    record.day = day;
    // analyze:allow(hot-unreserved-growth): sampled-record sink; at rates
    // << 1 reserving entries.size() would allocate more, not less
    delta.records.push_back(std::move(record));
  }
  return delta;
}

void PassivePipeline::apply(Delta&& delta) {
  // analyze:allow(hot-transitive): false call-graph edge — the analyzer's
  // name-based member resolution unions `stream->apply(event)` with every
  // `apply` method; this batch sink runs on the measurement side only
  records_.insert(records_.end(),
                  std::make_move_iterator(delta.records.begin()),
                  std::make_move_iterator(delta.records.end()));
  // analyze:allow(det-unordered-iter): keyed commutative fold; per-key addition is order-independent
  for (const auto& [key, count] : delta.day_connections) {
    day_connections_[key] += count;
  }
  control_connections_ += delta.control_connections;
  experiment_connections_ += delta.experiment_connections;
}

void PassivePipeline::observe(const web::PageLoad& load,
                              const std::string& domain, Treatment treatment,
                              std::uint64_t day) {
  apply(observe_one(load, domain, treatment, day));
}

void PassivePipeline::observe_batch(
    const std::vector<Observation>& observations, const std::string& domain,
    std::size_t threads) {
  std::vector<Delta> deltas(observations.size());
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(observations.size(), [&](std::size_t i) {
    const Observation& obs = observations[i];
    deltas[i] = observe_one(*obs.load, domain, obs.treatment, obs.day);
  });
  // Serial apply in input order: record order matches the serial loop.
  for (auto& delta : deltas) apply(std::move(delta));
}

void PassivePipeline::merge(const PassivePipeline& other) {
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
  // analyze:allow(det-unordered-iter): keyed commutative fold; per-key addition is order-independent
  for (const auto& [key, count] : other.day_connections_) {
    day_connections_[key] += count;
  }
  control_connections_ += other.control_connections_;
  experiment_connections_ += other.experiment_connections_;
}

void PassivePipeline::reset() {
  records_.clear();
  day_connections_.clear();
  control_connections_ = 0;
  experiment_connections_ = 0;
}

std::uint64_t PassivePipeline::new_connections(Treatment treatment) const {
  return treatment == Treatment::kControl ? control_connections_
                                          : experiment_connections_;
}

std::uint64_t PassivePipeline::new_connections_on_day(Treatment treatment,
                                                      std::uint64_t day) const {
  const std::uint64_t* count = day_connections_.find(
      std::pair<int, std::uint64_t>{treatment == Treatment::kControl ? 0 : 1,
                                    day});
  return count == nullptr ? 0 : *count;
}

std::uint64_t PassivePipeline::coalesced_connections(
    Treatment treatment) const {
  origin::util::FlatSet<std::uint64_t> connections;
  for (const auto& record : records_) {
    if (record.treatment != treatment) continue;
    // The paper's signal: flag bit set and arrival order >= 2, counting
    // each connection id once.
    if (record.host_differs_sni && record.arrival_order >= 2) {
      connections.insert(record.connection_id);
    }
  }
  return connections.size();
}

double PassivePipeline::reduction_vs_control() const {
  if (control_connections_ == 0) return 0.0;
  return 1.0 - static_cast<double>(experiment_connections_) /
                   static_cast<double>(control_connections_);
}

}  // namespace origin::measure
