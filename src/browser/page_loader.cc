#include "browser/page_loader.h"

#include <algorithm>

#include "tls/handshake.h"

namespace origin::browser {

using origin::util::Duration;
using origin::util::SimTime;

namespace {

constexpr std::size_t kRequestBytes = 500;  // serialized request size

bool is_h2_capable(web::HttpVersion version) {
  return version == web::HttpVersion::kH2 || version == web::HttpVersion::kH3 ||
         version == web::HttpVersion::kQuic;
}

}  // namespace

PageLoader::PageLoader(Environment& env, LoaderOptions options)
    : env_(env),
      options_(std::move(options)),
      policy_(parse_policy(options_.policy)),
      rng_(options_.seed),
      next_connection_id_(options_.first_connection_id) {}

web::PageLoad PageLoader::load(const web::Webpage& page) {
  web::PageLoad result;
  result.tranco_rank = page.tranco_rank;
  result.base_hostname = page.base_hostname;

  // Fresh session per page: new resolver cache, empty pool (paper §3.1:
  // each trial used a new browser session to kill caching effects).
  origin::util::Rng page_rng = rng_.fork(page.tranco_rank + 1);
  dns::Resolver resolver(env_.dns(), options_.resolver, page_rng.next());
  // Each resource opens at most one connection, so this reserve keeps
  // every pool entry where it is: records point at their own origin set.
  std::vector<LiveConnection> pool;
  pool.reserve(page.resources.size());

  result.entries.reserve(page.resources.size());
  for (std::size_t i = 0; i < page.resources.size(); ++i) {
    const web::Resource& res = page.resources[i];
    web::HarEntry entry;
    entry.resource_index = static_cast<int>(i);
    entry.hostname = res.hostname;
    entry.version = res.recorded_version;
    entry.secure = res.secure;
    entry.mode = res.mode;
    entry.content_type = res.content_type;

    // Dependency gate: a request dispatches after its parent's response has
    // been parsed for `discovery_cpu_ms` (§4.1 keeps this CPU time fixed).
    SimTime ready;
    if (res.parent >= 0 &&
        static_cast<std::size_t>(res.parent) < result.entries.size()) {
      const auto& parent = result.entries[static_cast<std::size_t>(res.parent)];
      ready = parent.end() + Duration::millis(res.discovery_cpu_ms);
    }
    entry.start = ready;

    const Service* service = env_.find_service(res.hostname);
    if (service == nullptr) {
      // Dead reference on the page: DNS failure, no connection.
      auto answer = resolver.resolve(res.hostname, dns::Family::kV4, ready);
      entry.new_dns_query = !answer.from_cache;
      entry.timings.dns = answer.latency;
      result.entries.push_back(std::move(entry));
      continue;
    }
    entry.asn = service->asn;

    const Pool request_pool = pool_for(res.mode);
    const bool h2_capable = is_h2_capable(res.version) && res.secure;
    LiveConnection* chosen = nullptr;
    bool via_coalescing = false;
    Duration penalty;  // 421 retry cost, accrues into `blocked`

    // --- 1. same-host reuse -------------------------------------------
    // h2: any same-host connection multiplexes. h1: browsers cap parallel
    // connections per host (6 in practice; 2 here matches our coarser
    // request granularity) and queue on the least-busy one beyond that.
    std::size_t h1_conns_to_host = 0;
    LiveConnection* least_busy_h1 = nullptr;
    for (auto& conn : pool) {
      if (conn.record.pool != request_pool) continue;
      if (conn.record.sni != res.hostname) continue;
      if (conn.record.http2 && h2_capable) {
        chosen = &conn;
        break;
      }
      if (!conn.record.http2 && !h2_capable) {
        ++h1_conns_to_host;
        if (conn.busy_until <= ready) {
          chosen = &conn;  // idle keep-alive
          break;
        }
        if (least_busy_h1 == nullptr ||
            conn.busy_until < least_busy_h1->busy_until) {
          least_busy_h1 = &conn;
        }
      }
    }
    if (chosen == nullptr && least_busy_h1 != nullptr &&
        h1_conns_to_host >= 2) {
      // Queue behind the least-busy existing h1 connection; the queueing
      // delay is the request's `blocked` phase.
      chosen = least_busy_h1;
      penalty = chosen->busy_until - ready;
    }

    dns::Answer answer;
    bool resolved = false;

    // --- 2. cross-host coalescing (policy.h) ---------------------------
    if (chosen == nullptr && h2_capable) {
      // 2a. without DNS (spec-pure ORIGIN clients only).
      for (auto& conn : pool) {
        if (may_coalesce(policy_, request_pool, conn.record, res.hostname,
                         nullptr)) {
          chosen = &conn;
          via_coalescing = true;
          break;
        }
      }
      // 2b. with a blocking DNS query.
      if (chosen == nullptr) {
        answer = resolver.resolve(res.hostname, dns::Family::kV4, ready);
        resolved = true;
        entry.new_dns_query = !answer.from_cache;
        entry.timings.dns = answer.latency;
        if (answer.ok) {
          for (auto& conn : pool) {
            if (may_coalesce(policy_, request_pool, conn.record, res.hostname,
                             &answer.addresses)) {
              chosen = &conn;
              via_coalescing = true;
              break;
            }
          }
        }
      }
    }

    // --- 3. 421 Misdirected Request -----------------------------------
    if (chosen != nullptr && via_coalescing &&
        !chosen->service->serves(res.hostname)) {
      // The optimistic request costs a full round trip before the client
      // learns it must open its own connection (§2.2).
      penalty = chosen->service->link.rtt() +
                Duration::millis(chosen->service->server_think_ms);
      entry.status_421 = true;
      chosen = nullptr;
    }

    // --- 4. new connection ---------------------------------------------
    if (chosen == nullptr) {
      if (!resolved) {
        answer = resolver.resolve(res.hostname, dns::Family::kV4, ready);
        resolved = true;
        entry.new_dns_query = !answer.from_cache;
        entry.timings.dns = answer.latency;
      }
      if (!answer.ok) {
        result.entries.push_back(std::move(entry));
        continue;
      }
      // Happy-eyeballs double query rides along with fresh resolutions.
      if (entry.new_dns_query &&
          page_rng.bernoulli(options_.happy_eyeballs_extra_dns)) {
        ++result.extra_dns_queries;
      }

      LiveConnection conn;
      conn.record.id = next_connection_id_++;
      conn.record.sni = res.hostname;
      conn.record.connected_address = answer.addresses.front();
      conn.record.available_set = answer.addresses;
      conn.record.http2 = h2_capable;
      conn.record.pool = request_pool;
      conn.service = service;

      const netsim::LinkParams& link = service->link;
      const bool quic = res.version == web::HttpVersion::kH3 ||
                        res.version == web::HttpVersion::kQuic;
      if (!quic) entry.timings.connect = link.rtt();

      if (res.secure) {
        auto handshake = tls::simulate_handshake(*service->certificate);
        // The handshake model reports round trips; price them at this
        // link's RTT. QUIC folds transport setup into the same flight.
        entry.timings.ssl =
            link.rtt() * static_cast<double>(handshake.round_trips) +
            tls::kCryptoCost;
        if (!handshake.ok) {
          // Oversized certificate: SSL protocol error, request dies.
          result.entries.push_back(std::move(entry));
          continue;
        }
        entry.new_tls_connection = true;
        entry.cert_serial = service->certificate->serial;
        entry.cert_issuer = service->certificate->issuer;
        entry.cert_san_count =
            static_cast<std::int64_t>(service->certificate->san_dns.size());
        (void)env_.trust_store().validate(*service->certificate, res.hostname,
                                          ready);
        conn.record.certificate = service->certificate.get();
        // Speculative duplicate socket (§4.2): costs a handshake, carries
        // nothing.
        if (h2_capable &&
            page_rng.bernoulli(options_.speculative_extra_connection)) {
          entry.speculative_duplicate = true;
          ++result.extra_tls_connections;
        }
      }

      // ORIGIN frame arrives in the server's first flight.
      h2::Origin initial;
      initial.scheme = res.secure ? "https" : "http";
      initial.host = res.hostname;
      conn.origin_set = h2::OriginSet(initial);
      if (h2_capable && service->origin_frame_enabled) {
        conn.origin_set.apply_origin_frame(service->origin_advertisement);
      }
      pool.push_back(std::move(conn));
      chosen = &pool.back();
      chosen->record.origin_set = &chosen->origin_set;
    }

    entry.connection_id = chosen->record.id;
    entry.server_address = chosen->record.connected_address;
    if (resolved && answer.ok) entry.dns_answer_set = answer.addresses;

    const netsim::LinkParams& link = service->link;
    entry.timings.blocked = penalty;
    entry.timings.send = link.transfer_time(kRequestBytes);
    entry.timings.wait =
        link.rtt() + Duration::millis(service->server_think_ms *
                                      (0.5 + page_rng.uniform_double()));
    entry.timings.receive = link.transfer_time(res.size_bytes);

    if (!chosen->record.http2) {
      chosen->busy_until = entry.end();
    }
    result.entries.push_back(std::move(entry));
  }
  return result;
}

}  // namespace origin::browser
