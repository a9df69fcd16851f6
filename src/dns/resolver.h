// Caching stub resolver with CNAME chasing and a latency model.
//
// Every resolution a browser performs is one of the paper's "render-
// blocking DNS queries"; the resolver counts lookups and cache hits so the
// measurement layer can reproduce the DNS columns of Table 1 and Figure 3.
// Plaintext (Do53) vs encrypted (DoH/DoT) transport matters for the privacy
// accounting in §6.2, so queries record their transport.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/record.h"
#include "dns/zone.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace origin::dns {

enum class Transport : std::uint8_t { kDo53, kDoT, kDoH };

struct ResolverStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t recursive_queries = 0;
  std::uint64_t nxdomain = 0;
  // Queries whose name was visible in cleartext on the wire (§6.2).
  std::uint64_t plaintext_exposures = 0;
  // Injected upstream failures (fault_servfail_rate / fault_timeout_rate).
  std::uint64_t injected_servfails = 0;
  std::uint64_t injected_timeouts = 0;
};

struct Answer {
  bool ok = false;
  std::vector<IpAddress> addresses;
  std::string canonical_name;
  std::uint32_t ttl_seconds = 0;
  bool from_cache = false;
  // True when the failure was injected by the fault plan (SERVFAIL or
  // upstream timeout) rather than being an authoritative NXDOMAIN.
  bool injected_fault = false;
  origin::util::Duration latency;
};

class Resolver {
 public:
  struct Params {
    // Recursive resolution latency: base scaled by lognormal jitter.
    origin::util::Duration recursive_base = origin::util::Duration::millis(12);
    Transport transport = Transport::kDo53;
    // Deterministic fault injection: each upstream query rolls a hash of
    // (fault_seed, name, per-name attempt index) against these rates —
    // mirroring netsim::FaultConfig's dns_* knobs without a dependency on
    // the netsim layer. Injected failures are NOT negative-cached, so a
    // retry after backoff re-queries upstream like a real stub resolver.
    double fault_servfail_rate = 0.0;
    double fault_timeout_rate = 0.0;
    std::uint64_t fault_seed = 0;
  };

  // Each page load builds its own resolver (a new browser session per
  // page), and the page seed determines which rotated DNS answer window the
  // page sees: rotation is derived from (seed, name) rather than from a
  // shared zone counter, so concurrent page loads get the same answers they
  // would get serially, in any order.
  Resolver(AuthoritativeDns& upstream, Params params, std::uint64_t seed);

  // Resolves `name` to addresses of `family` at simulated time `now`.
  Answer resolve(const std::string& name, Family family,
                 origin::util::SimTime now);

  const ResolverStats& stats() const { return stats_; }
  Transport transport() const { return params_.transport; }

 private:
  struct CacheEntry {
    std::vector<IpAddress> addresses;
    std::string canonical_name;
    std::uint32_t ttl_seconds = 0;
    origin::util::SimTime expires;
  };

  std::string cache_key(const std::string& name, Family family) const {
    return name + (family == Family::kV4 ? "|4" : "|6");
  }

  AuthoritativeDns& upstream_;
  Params params_;
  origin::util::Rng rng_;
  std::uint64_t rotation_salt_ = 0;
  // Per-name upstream query count: a TTL-expired re-query advances this
  // resolver's window without touching any shared state.
  std::map<std::string, std::uint64_t> upstream_queries_;
  // Per-name fault roll count, advanced on every upstream attempt so a
  // retried query gets an independent (but still deterministic) roll.
  std::map<std::string, std::uint64_t> fault_attempts_;
  std::map<std::string, CacheEntry> cache_;
  ResolverStats stats_;
};

}  // namespace origin::dns
