// Connection coalescing (paper §2.3): one rule, shared by both loaders.
//
// A connection carries a request for another host only when both are
// credentialed, the connection is HTTP/2 and its certificate covers the
// host. Each policy then applies one test, encoding a behaviour the paper
// confirmed by code inspection and testing:
//
//  * chromium-ip — net/http/http_stream_factory.cc behaviour: the client
//    keeps only the address it connected to; the host's own DNS answer
//    must contain that exact address.
//  * firefox-transitive — Http2Session.cpp behaviour: the client also
//    caches the *available set* returned by DNS at connect time; overlap
//    between that set and the host's answer is accepted by transitivity.
//    Firefox also honours ORIGIN frames, but it still issues a (blocking)
//    DNS query for origin-set members before reusing (§6.8).
//  * origin-frame — the spec-pure client the paper argues for: members of
//    an explicit origin set need no DNS query at all, and certificate
//    coverage is the sole authority check (RFC 8336 §2.4). Other hosts
//    fall back to Firefox's test after DNS.
//
// CORS-anonymous and fetch requests use a separate, credentialless pool
// that never coalesces across hosts, which is what §5.3 observed in
// deployment.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "h2/origin_set.h"
#include "tls/certificate.h"
#include "web/resource.h"

namespace origin::browser {

enum class Policy : std::uint8_t {
  kChromiumIp,
  kFirefoxTransitive,
  kOriginFrame,
};

// "chromium-ip", "firefox-transitive" or "origin-frame"; any other name
// fails an ORIGIN_CHECK.
Policy parse_policy(std::string_view name);

// The connection-pool partition a request belongs to.
enum class Pool : std::uint8_t { kCredentialed, kAnonymous };

constexpr Pool pool_for(web::RequestMode mode) {
  return mode == web::RequestMode::kCorsAnonymous ||
                 mode == web::RequestMode::kFetchApi
             ? Pool::kAnonymous
             : Pool::kCredentialed;
}

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
  Pool pool = Pool::kCredentialed;
};

// May a `request`-pool request for `host`, a different host from the
// connection's own, ride on `conn`? `answer` is the host's DNS answer, or
// null before the client has queried: then only origin-frame can admit.
bool may_coalesce(Policy policy, Pool request, const ConnectionRecord& conn,
                  std::string_view host,
                  const std::vector<dns::IpAddress>* answer);

}  // namespace origin::browser
