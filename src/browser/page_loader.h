// Analytic page loader: loads a Webpage against an Environment under a
// chosen coalescing policy and produces the HAR-style timeline the
// measurement and modeling layers consume.
//
// This is the WebPageTest stand-in: it reproduces the request waterfall —
// dependency-gated dispatch, per-request DNS / TCP / TLS phases, connection
// pooling with policy-driven coalescing, 421 retries, CORS pool
// partitioning, and the browser race conditions (§4.2: happy-eyeballs
// duplicate queries, speculative parallel connections) that make measured
// DNS and TLS counts diverge.
//
// The wire-level counterpart (wire_client.h) drives the same protocol
// decisions through real HTTP/2 connections over netsim; this loader exists
// so corpus-scale experiments (300K+ page loads) finish in seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "browser/policy.h"
#include "dns/resolver.h"
#include "util/rng.h"
#include "web/har.h"
#include "web/resource.h"

namespace origin::browser {

struct LoaderOptions {
  // "chromium-ip", "firefox-transitive" or "origin-frame" (parse_policy).
  std::string policy = "chromium-ip";
  dns::Resolver::Params resolver;
  // Race-condition model (§4.2). Probabilities per *new-connection* event:
  double happy_eyeballs_extra_dns = 0.08;  // parallel AAAA/A double query
  double speculative_extra_connection = 0.05;  // duplicate socket, unused
  std::uint64_t seed = 1;
  // First connection id this loader hands out. Sharded collection gives
  // every site's loader a disjoint id block so connection ids stay globally
  // unique (the passive pipeline dedups on them) AND identical to the
  // serial run — ids must never depend on which worker loaded a page first.
  std::uint64_t first_connection_id = 1;
  // Client tag the wire client connects under; middleboxes and the server's
  // per-client ORIGIN kill-switch key on it.
  std::string network_tag = "wire-client";
};

class PageLoader {
 public:
  PageLoader(Environment& env, LoaderOptions options);

  // Loads one page in a new browser session (paper method: fresh DNS
  // cache, empty connection pool) and returns its timeline. Deterministic
  // given (options.seed, page content, environment state).
  web::PageLoad load(const web::Webpage& page);

 private:
  struct LiveConnection {
    ConnectionRecord record;  // its origin_set points at origin_set below
    h2::OriginSet origin_set{h2::Origin{}};
    const Service* service = nullptr;
    // h1 connections serialize requests; busy_until gates reuse.
    origin::util::SimTime busy_until;
  };

  Environment& env_;
  LoaderOptions options_;
  Policy policy_;
  origin::util::Rng rng_;
  std::uint64_t next_connection_id_;
};

}  // namespace origin::browser
