#include "browser/policy.h"

#include <algorithm>

#include "util/check.h"
#include "util/hot_path.h"

namespace origin::browser {

namespace {

bool cert_covers(const ConnectionRecord& conn, std::string_view host) {
  return conn.certificate != nullptr && conn.certificate->covers(host);
}

// Has an ORIGIN frame put `host` in the connection's origin set?
bool origin_set_admits(const ConnectionRecord& conn, std::string_view host) {
  return conn.origin_set != nullptr &&
         conn.origin_set->received_origin_frame() &&
         conn.origin_set->contains(host);
}

bool answer_holds(const std::vector<dns::IpAddress>& answer,
                  dns::IpAddress address) {
  return std::find(answer.begin(), answer.end(), address) != answer.end();
}

bool answer_overlaps(const std::vector<dns::IpAddress>& answer,
                     const std::vector<dns::IpAddress>& available) {
  return std::find_first_of(answer.begin(), answer.end(), available.begin(),
                            available.end()) != answer.end();
}

}  // namespace

Policy parse_policy(std::string_view name) {
  if (name == "chromium-ip") return Policy::kChromiumIp;
  if (name == "firefox-transitive") return Policy::kFirefoxTransitive;
  ORIGIN_CHECK(name == "origin-frame",
               "unknown coalescing policy: want chromium-ip, "
               "firefox-transitive or origin-frame");
  return Policy::kOriginFrame;
}

ORIGIN_HOT bool may_coalesce(Policy policy, Pool request,
                             const ConnectionRecord& conn,
                             std::string_view host,
                             const std::vector<dns::IpAddress>* answer) {
  if (request != Pool::kCredentialed || conn.pool != Pool::kCredentialed ||
      !conn.http2) {
    return false;
  }
  if (answer == nullptr) {
    // ORIGIN membership first: it is cheaper than the SAN walk.
    return policy == Policy::kOriginFrame && origin_set_admits(conn, host) &&
           cert_covers(conn, host);
  }
  if (!cert_covers(conn, host)) return false;
  // Connected set only: transitivity through other answer members is lost.
  if (policy == Policy::kChromiumIp) {
    return answer_holds(*answer, conn.connected_address);
  }
  // An explicit origin set admits the host without an address check (the
  // DNS query still happened and was counted).
  return origin_set_admits(conn, host) ||
         answer_overlaps(*answer, conn.available_set);
}

}  // namespace origin::browser
