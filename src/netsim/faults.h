// Seeded, deterministic fault injection for the simulated network.
//
// The paper's most operationally interesting result is a failure (§6.7: a
// middlebox tore down TLS connections on seeing an ORIGIN frame), yet a
// best-case coalescing evaluation needs a worst-case fault model to be
// credible. This layer injects connect failures/timeouts, mid-stream RSTs,
// byte truncation/corruption, stalls, DNS SERVFAILs/timeouts, and TLS
// handshake failures — every decision a pure function of
// (seed, connection_id, direction, event_index) via the same hash idiom the
// parallel pipeline uses, so fault schedules are bit-identical across
// thread counts and replayable from a single seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/sim_time.h"

namespace origin::netsim {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kConnectRefused,   // connect callback fires with an error
  kConnectTimeout,   // connect callback never fires (SYN blackhole)
  kRst,              // abrupt mid-stream teardown
  kTruncate,         // a delivery loses its tail bytes
  kCorrupt,          // a delivery has one byte flipped
  kStall,            // a delivery is delayed without closing the connection
  kDnsServfail,      // upstream query answers SERVFAIL
  kDnsTimeout,       // upstream query times out
  kTlsHandshake,     // TLS handshake fails after TCP connect
};

const char* fault_kind_name(FaultKind kind);

// Per-kind fault probabilities plus the seed every decision derives from.
// Parsed from "key=value,key=value" text (the fuzzed surface) and buildable
// programmatically; `uniform(rate, seed)` spreads one headline rate across
// the connection-level kinds the way bench_paper's fault ablation sweeps it.
struct FaultConfig {
  std::uint64_t seed = 0x0F417;
  // Per-connection-attempt probabilities.
  double connect_refused = 0.0;
  double connect_timeout = 0.0;
  // Per-connection probability of one mid-stream fault (kind chosen here,
  // direction and event index chosen by hash).
  double rst = 0.0;
  double truncate = 0.0;
  double corrupt = 0.0;
  double stall = 0.0;
  // Per-connection probability the TLS handshake fails after TCP connect.
  double tls_handshake = 0.0;
  // Per-upstream-DNS-query probabilities (consumed by dns::Resolver via
  // its Params mirror; kept here so one config describes the whole plan).
  double dns_servfail = 0.0;
  double dns_timeout = 0.0;
  // Extra delay a stalled delivery suffers.
  origin::util::Duration stall_delay = origin::util::Duration::seconds(20);
  // Cap on total injected faults; 0 = unlimited. Lets targeted tests
  // inject exactly N faults deterministically.
  std::uint64_t max_faults = 0;

  // Parses "rst=0.05,seed=7,stall_delay_ms=500". Unknown keys, malformed
  // numbers, and out-of-range rates are errors (the fuzzed contract).
  [[nodiscard]] static origin::util::Result<FaultConfig> parse(
      std::string_view text);

  // One headline rate: each connection draws connect failure, mid-stream
  // fault, and TLS failure independently at `rate`; DNS faults at rate/2.
  static FaultConfig uniform(double rate, std::uint64_t seed);

  // Canonical key=value form; parse(serialize()) round-trips.
  std::string serialize() const;
};

// The per-connection fault schedule: at most one mid-stream fault, pinned
// to a (direction, event index) pair so injection is independent of event
// interleaving across loads.
struct StreamFaultPlan {
  FaultKind kind = FaultKind::kNone;
  bool to_server = false;
  std::uint32_t event_index = 0;
};

// Pure-hash decision maker the Network consults. Stateless except for the
// injection budget; all plan queries are const and thread-count invariant.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  const FaultConfig& config() const { return config_; }

  FaultKind connect_fault(std::uint64_t attempt) const;
  StreamFaultPlan stream_fault(std::uint64_t connection_id) const;
  bool tls_fault(std::uint64_t connection_id) const;
  std::size_t corrupt_offset(std::uint64_t connection_id,
                             std::size_t size) const;
  origin::util::Duration stall_delay() const { return config_.stall_delay; }

  // Consumes one slot of the max_faults budget at injection time. Returns
  // false once the budget is exhausted (injection is then suppressed).
  bool consume_budget();
  std::uint64_t injected() const { return injected_; }

 private:
  FaultConfig config_;
  std::uint64_t injected_ = 0;
};

// Counters for every degradation event the client survives (or doesn't).
// Surfaced through WireLoadResult and measure/reports; serialize() is the
// canonical byte form the 1-vs-8-thread determinism check compares.
struct RobustnessStats {
  std::uint64_t connect_timeouts = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t request_timeouts = 0;
  std::uint64_t dns_failures = 0;
  std::uint64_t tls_failures = 0;
  std::uint64_t h2_protocol_errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t backoff_micros = 0;
  std::uint64_t retry_budget_exhausted = 0;
  std::uint64_t avoid_list_entries = 0;
  std::uint64_t avoided_coalescings = 0;
  std::uint64_t redispatched_streams = 0;
  std::uint64_t goaways_received = 0;
  // Streams re-dispatched budget-free because the server's GOAWAY was a
  // graceful drain (NO_ERROR) rather than a failure.
  std::uint64_t goaway_redispatches = 0;
  std::uint64_t connections_torn_down = 0;
  std::uint64_t deadline_expirations = 0;
  std::map<std::string, std::uint64_t> teardown_reasons;

  void merge(const RobustnessStats& other);
  std::string serialize() const;
};

}  // namespace origin::netsim
