#include "dns/resolver.h"

#include <algorithm>

#include "util/fnv.h"

namespace origin::dns {

namespace {

constexpr origin::util::Duration kCacheHitLatency =
    origin::util::Duration::micros(100);
// Sigma of the lognormal jitter that scales Params::recursive_base.
constexpr double kJitterSigma = 0.6;
constexpr int kMaxCnameDepth = 8;
// How long an injected upstream timeout holds the query.
constexpr origin::util::Duration kFaultTimeoutLatency =
    origin::util::Duration::seconds(5);

}  // namespace

Resolver::Resolver(AuthoritativeDns& upstream, Params params,
                   std::uint64_t seed)
    : upstream_(upstream),
      params_(params),
      rng_(seed),
      rotation_salt_(origin::util::fnv1a64_mix(seed, 0x0D15C0117ULL)) {}

Answer Resolver::resolve(const std::string& name, Family family,
                         origin::util::SimTime now) {
  ++stats_.lookups;
  Answer answer;

  const std::string key = cache_key(name, family);
  auto it = cache_.find(key);
  if (it != cache_.end() && now < it->second.expires) {
    ++stats_.cache_hits;
    answer.ok = !it->second.addresses.empty();
    answer.addresses = it->second.addresses;
    answer.canonical_name = it->second.canonical_name;
    answer.ttl_seconds = it->second.ttl_seconds;
    answer.from_cache = true;
    answer.latency = kCacheHitLatency;
    return answer;
  }

  ++stats_.recursive_queries;
  if (params_.transport == Transport::kDo53) ++stats_.plaintext_exposures;

  if (params_.fault_servfail_rate > 0.0 || params_.fault_timeout_rate > 0.0) {
    // Same pure-hash roll the netsim fault injector uses: a function of
    // (fault_seed, name, this resolver's attempt count for the name), so
    // schedules replay bit-identically regardless of thread interleaving.
    const std::uint64_t h = origin::util::fnv1a64_mix(
        origin::util::fnv1a64_mix(params_.fault_seed, 0xD0F417ULL),
        origin::util::fnv1a64_mix(origin::util::fnv1a64(name),
                                  fault_attempts_[name]++));
    const double r = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (r < params_.fault_servfail_rate) {
      ++stats_.injected_servfails;
      answer.injected_fault = true;
      // SERVFAIL comes back about as fast as a real answer; not cached, so
      // a backoff retry gets a fresh roll.
      answer.latency =
          params_.recursive_base * rng_.lognormal(0.0, kJitterSigma);
      return answer;
    }
    if (r < params_.fault_servfail_rate + params_.fault_timeout_rate) {
      ++stats_.injected_timeouts;
      answer.injected_fault = true;
      answer.latency = kFaultTimeoutLatency;
      return answer;
    }
  }

  const RecordType want =
      family == Family::kV4 ? RecordType::kA : RecordType::kAAAA;
  std::string current = name;
  std::uint32_t min_ttl = 0xffffffffu;
  std::vector<IpAddress> addresses;
  for (int depth = 0; depth < kMaxCnameDepth; ++depth) {
    // Rotation position is a pure function of (resolver seed, name, how
    // often THIS resolver asked): load-balanced answer sets stay diverse
    // across pages yet independent of global query order.
    const std::uint64_t rotation =
        origin::util::fnv1a64_mix(rotation_salt_,
                                  origin::util::fnv1a64(current)) +
        upstream_queries_[current]++;
    auto records = upstream_.query_at(current, want, rotation);
    if (records.empty()) break;
    if (records[0].type == RecordType::kCNAME) {
      min_ttl = std::min(min_ttl, records[0].ttl_seconds);
      current = records[0].target;
      continue;
    }
    for (const auto& record : records) {
      addresses.push_back(record.address);
      min_ttl = std::min(min_ttl, record.ttl_seconds);
    }
    break;
  }

  answer.ok = !addresses.empty();
  answer.addresses = std::move(addresses);
  answer.canonical_name = current;
  answer.ttl_seconds = answer.ok ? min_ttl : 30;  // negative-cache 30s
  answer.latency = params_.recursive_base * rng_.lognormal(0.0, kJitterSigma);
  if (!answer.ok) ++stats_.nxdomain;

  CacheEntry entry;
  entry.addresses = answer.addresses;
  entry.canonical_name = answer.canonical_name;
  entry.ttl_seconds = answer.ttl_seconds;
  entry.expires =
      now + origin::util::Duration::seconds(static_cast<double>(answer.ttl_seconds));
  cache_[cache_key(name, family)] = std::move(entry);
  return answer;
}

}  // namespace origin::dns
