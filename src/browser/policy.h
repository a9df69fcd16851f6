// Connection-coalescing policies (paper §2.3).
//
// The three implementations encode the behaviours the paper confirmed by
// code inspection and testing:
//
//  * ChromiumIpPolicy — net/http/http_stream_factory.cc behaviour: the
//    client keeps only the address it connected to; a subresource may reuse
//    the connection only if its own DNS answer contains that exact address.
//  * FirefoxTransitivePolicy — Http2Session.cpp behaviour: the client also
//    caches the *available set* returned by DNS at connect time; overlap
//    between that set and the subresource's answer set is accepted by
//    transitivity. Firefox is additionally the only browser honouring
//    ORIGIN frames — but it still issues a (blocking) DNS query for
//    origin-set members before reusing (§6.8).
//  * OriginFramePolicy — the spec-pure client the paper argues for: members
//    of an explicit origin set need no DNS query at all; certificate
//    coverage is the sole authority check (RFC 8336 §2.4).
//
// All policies require certificate coverage of the target hostname; none
// coalesce across connection-pool partitions (CORS-anonymous / fetch pools
// are keyed separately, which is what §5.3 observed in deployment).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/record.h"
#include "h2/origin_set.h"
#include "tls/certificate.h"

namespace origin::browser {

// Client-side record of one live connection.
struct ConnectionRecord {
  std::uint64_t id = 0;
  std::string sni;                          // hostname it was opened for
  dns::IpAddress connected_address;         // the address in use
  std::vector<dns::IpAddress> available_set;  // full DNS answer at connect
  // Both read where they live, never copied per connection or candidate;
  // each outlives the record. Null covers nothing and admits nothing.
  const tls::Certificate* certificate = nullptr;  // as validated at handshake
  const h2::OriginSet* origin_set = nullptr;  // updated by ORIGIN frames
  bool http2 = true;                        // h1 connections never coalesce
  std::string pool_key;                     // "cred" / "anon" partition
};

// The decision for one candidate (connection, hostname) pair.
struct ReuseDecision {
  bool reuse = false;
  // True when the policy needed a DNS answer to decide (the caller must
  // have performed — and will account — a blocking DNS query).
  bool dns_consulted = false;
  const char* reason = "";
};

class CoalescingPolicy {
 public:
  virtual ~CoalescingPolicy() = default;
  virtual const char* name() const = 0;

  // Can the decision be made without a DNS answer for `hostname`? When
  // true, evaluate() may be called with an empty answer set.
  virtual bool can_decide_without_dns(const ConnectionRecord& conn,
                                      const std::string& hostname) const = 0;

  virtual ReuseDecision evaluate(
      const ConnectionRecord& conn, const std::string& hostname,
      const std::vector<dns::IpAddress>& dns_answer) const = 0;
};

class ChromiumIpPolicy final : public CoalescingPolicy {
 public:
  const char* name() const override { return "chromium-ip"; }
  bool can_decide_without_dns(const ConnectionRecord&,
                              const std::string&) const override {
    return false;
  }
  ReuseDecision evaluate(
      const ConnectionRecord& conn, const std::string& hostname,
      const std::vector<dns::IpAddress>& dns_answer) const override;
};

class FirefoxTransitivePolicy final : public CoalescingPolicy {
 public:
  const char* name() const override { return "firefox-transitive"; }
  bool can_decide_without_dns(const ConnectionRecord&,
                              const std::string&) const override {
    // §6.8: Firefox issues blocking DNS queries even for origin-set
    // members.
    return false;
  }
  ReuseDecision evaluate(
      const ConnectionRecord& conn, const std::string& hostname,
      const std::vector<dns::IpAddress>& dns_answer) const override;
};

class OriginFramePolicy final : public CoalescingPolicy {
 public:
  const char* name() const override { return "origin-frame"; }
  bool can_decide_without_dns(const ConnectionRecord& conn,
                              const std::string& hostname) const override;
  ReuseDecision evaluate(
      const ConnectionRecord& conn, const std::string& hostname,
      const std::vector<dns::IpAddress>& dns_answer) const override;
};

std::unique_ptr<CoalescingPolicy> make_policy(const std::string& name);

}  // namespace origin::browser
