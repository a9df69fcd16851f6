// Authoritative DNS: zone data plus answer-set policies.
//
// The paper's browser analysis (§2.3) hinges on servers returning *sets* of
// addresses, possibly rotated between queries for load balancing (RFC
// 1794): Chromium keeps only the connected address, Firefox also caches the
// available set and exploits transitivity. The rotation policy here lets
// experiments reproduce exactly those divergent outcomes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "util/rng.h"

namespace origin::dns {

enum class AnswerPolicy : std::uint8_t {
  kAllFixed,    // return all addresses, fixed order
  kRoundRobin,  // return all addresses, rotated per query
  kSingle,      // return one address, rotated per query (strict LB)
  // Return a 2-address window that slides by one per query — the paper's
  // §2.3 example: the page gets {A, B}, the subresource gets {B, C}.
  // Chromium (connected-set) loses the transitive overlap; Firefox keeps it.
  kSubset,
};

class Zone {
 public:
  explicit Zone(std::string apex) : apex_(std::move(apex)) {}

  const std::string& apex() const { return apex_; }

  void add_a(const std::string& name, IpAddress address,
             std::uint32_t ttl_seconds = 300);
  void add_cname(const std::string& name, const std::string& target,
                 std::uint32_t ttl_seconds = 300);
  void set_policy(const std::string& name, AnswerPolicy policy);

  // Removes all address records for `name` (re-pointing a domain, §5.3
  // "DNS changes were undone").
  void clear_addresses(const std::string& name);

  // `name` is the apex or a name under it ("img.example.com" for
  // "example.com", not "notexample.com").
  bool authoritative_for(std::string_view name) const;

  // Answers a query without CNAME chasing (the resolver does that),
  // advancing this zone's internal rotation counter. Stateful: two equal
  // queries may get different (rotated) answers. Not safe for concurrent
  // callers — the parallel pipeline uses query_at instead.
  std::vector<ResourceRecord> query(const std::string& name, RecordType type);

  // Order-independent variant: the caller supplies the rotation position
  // (resolvers derive it from their per-page seed), so answers depend only
  // on (name, rotation) — never on how many queries other threads made
  // first. This is what keeps DNS load-balancing effects deterministic at
  // any thread count.
  std::vector<ResourceRecord> query_at(const std::string& name,
                                       RecordType type,
                                       std::uint64_t rotation) const;

 private:
  struct NameEntry {
    std::vector<ResourceRecord> records;
    AnswerPolicy policy = AnswerPolicy::kAllFixed;
    std::size_t rotation = 0;
  };

  std::string apex_;
  std::map<std::string, NameEntry> names_;
};

// The set of zones a recursive resolver can reach.
class AuthoritativeDns {
 public:
  using ZoneMap = std::map<std::string, Zone, std::less<>>;  // keyed by apex

  Zone& add_zone(const std::string& apex);
  // The zone with the longest apex authoritative for `name`, or null
  // ("img.cdn.example.com" prefers a "cdn.example.com" zone over an
  // "example.com" one).
  Zone* find_zone_for(std::string_view name);
  const Zone* find_zone_for(std::string_view name) const;
  const ZoneMap& zones() const { return zones_; }

  std::uint64_t query_count() const {
    return queries_.load(std::memory_order_relaxed);
  }
  // Stateful rotation (single-threaded direct users).
  std::vector<ResourceRecord> query(const std::string& name, RecordType type);
  // Caller-supplied rotation; safe for concurrent resolvers. The query
  // counter is an order-independent sum, so it stays exact in parallel.
  std::vector<ResourceRecord> query_at(const std::string& name,
                                       RecordType type,
                                       std::uint64_t rotation) const;

 private:
  ZoneMap zones_;
  // Atomic: concurrent page loads all funnel their recursive queries here.
  mutable std::atomic<std::uint64_t> queries_ = 0;
};

}  // namespace origin::dns
