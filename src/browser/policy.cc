#include "browser/policy.h"

#include <algorithm>

namespace origin::browser {

namespace {

bool cert_covers(const ConnectionRecord& conn, const std::string& hostname) {
  return conn.certificate != nullptr && conn.certificate->covers(hostname);
}

// Has an ORIGIN frame put `hostname` in the connection's origin set?
bool origin_set_admits(const ConnectionRecord& conn,
                       const std::string& hostname) {
  return conn.origin_set != nullptr &&
         conn.origin_set->received_origin_frame() &&
         conn.origin_set->contains(hostname);
}

bool contains(const std::vector<dns::IpAddress>& haystack,
              dns::IpAddress needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

bool sets_intersect(const std::vector<dns::IpAddress>& a,
                    const std::vector<dns::IpAddress>& b) {
  for (const auto& x : a) {
    if (contains(b, x)) return true;
  }
  return false;
}

}  // namespace

ReuseDecision ChromiumIpPolicy::evaluate(
    const ConnectionRecord& conn, const std::string& hostname,
    const std::vector<dns::IpAddress>& dns_answer) const {
  ReuseDecision decision;
  decision.dns_consulted = true;
  if (!conn.http2) {
    decision.reason = "h1 connection";
    return decision;
  }
  if (!cert_covers(conn, hostname)) {
    decision.reason = "certificate does not cover hostname";
    return decision;
  }
  // Connected-set only: the answer must contain the exact address this
  // connection uses. Transitivity through other answer members is lost.
  if (!contains(dns_answer, conn.connected_address)) {
    decision.reason = "connected address not in DNS answer";
    return decision;
  }
  decision.reuse = true;
  decision.reason = "ip match (connected set)";
  return decision;
}

ReuseDecision FirefoxTransitivePolicy::evaluate(
    const ConnectionRecord& conn, const std::string& hostname,
    const std::vector<dns::IpAddress>& dns_answer) const {
  ReuseDecision decision;
  decision.dns_consulted = true;
  if (!conn.http2) {
    decision.reason = "h1 connection";
    return decision;
  }
  if (!cert_covers(conn, hostname)) {
    decision.reason = "certificate does not cover hostname";
    return decision;
  }
  // ORIGIN frame first: an explicit origin set admits the hostname without
  // address checks (the DNS query still happened and was counted).
  if (origin_set_admits(conn, hostname)) {
    decision.reuse = true;
    decision.reason = "origin-set member";
    return decision;
  }
  // IP transitivity: any overlap between the connect-time available set and
  // the subresource's answer set.
  if (sets_intersect(conn.available_set, dns_answer)) {
    decision.reuse = true;
    decision.reason = "ip transitivity (available set)";
    return decision;
  }
  decision.reason = "no address overlap";
  return decision;
}

bool OriginFramePolicy::can_decide_without_dns(
    const ConnectionRecord& conn, const std::string& hostname) const {
  return conn.http2 && origin_set_admits(conn, hostname) &&
         cert_covers(conn, hostname);
}

ReuseDecision OriginFramePolicy::evaluate(
    const ConnectionRecord& conn, const std::string& hostname,
    const std::vector<dns::IpAddress>& dns_answer) const {
  ReuseDecision decision;
  if (!conn.http2) {
    decision.dns_consulted = true;
    decision.reason = "h1 connection";
    return decision;
  }
  if (origin_set_admits(conn, hostname) && cert_covers(conn, hostname)) {
    decision.reuse = true;
    decision.dns_consulted = false;
    decision.reason = "origin-set member, no dns";
    return decision;
  }
  // Fallback: behave like Firefox's transitive IP coalescing.
  decision.dns_consulted = true;
  if (!cert_covers(conn, hostname)) {
    decision.reason = "certificate does not cover hostname";
    return decision;
  }
  if (sets_intersect(conn.available_set, dns_answer)) {
    decision.reuse = true;
    decision.reason = "ip transitivity (available set)";
    return decision;
  }
  decision.reason = "no address overlap";
  return decision;
}

std::unique_ptr<CoalescingPolicy> make_policy(const std::string& name) {
  if (name == "chromium-ip") return std::make_unique<ChromiumIpPolicy>();
  if (name == "firefox-transitive") {
    return std::make_unique<FirefoxTransitivePolicy>();
  }
  if (name == "origin-frame") return std::make_unique<OriginFramePolicy>();
  return nullptr;
}

}  // namespace origin::browser
