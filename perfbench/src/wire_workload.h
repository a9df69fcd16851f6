// The wire-origin workload: many independent simulated PoPs ("worlds"),
// each serving a handful of corpus pages over real HTTP/2 on netsim.
//
// A world runs one server::Http2Server per service address, holding the
// certificate and a benchmark-owned vhost handler of every service the
// world's pages use on that address, and advertising those hostnames in
// an ORIGIN frame. One origin-frame browser::WireClient per page (a fresh
// browser session, the paper's method) loads its page, and the simulator
// runs on the calling thread until it is idle. Nothing here touches the
// dataset snapshots, the coalescing model or the HAR digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "trace.h"
#include "web/resource.h"

namespace perfbench {

struct WireConfig {
  std::uint64_t seed = 42;
  std::size_t corpus_sites = 2'000;
  std::size_t worlds = 48;
  std::size_t pages_per_world = 8;
};

// The deterministic outcome of one page load.
struct LoadCounts {
  bool complete = false;
  bool success = false;
  std::size_t connections_opened = 0;
  std::size_t coalesced_requests = 0;
  std::size_t retries_after_421 = 0;
  std::size_t dns_queries = 0;
  std::size_t tls_handshakes = 0;
  std::size_t requests = 0;

  bool operator==(const LoadCounts&) const = default;
};

struct WorldOutput {
  std::vector<LoadCounts> loads;
  // Every server's Http2Server::Stats::serialize(), in address order.
  std::string ledger;
  std::uint64_t sim_events = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t origin_frames_sent = 0;
  std::uint64_t responses_421 = 0;
  std::uint64_t server_requests = 0;

  bool same_outcome(const WorldOutput& other) const {
    return loads == other.loads && ledger == other.ledger;
  }
};

// What the traced run measures inside a world: the benchmark-owned vhost
// handler calls, and the wire bytes a forwarding middlebox captured,
// parsed with h2::FrameParser and HPACK-decoded after the run.
struct WireTraceCounts {
  std::int64_t handler_ns = 0;
  std::uint64_t handler_calls = 0;
  std::uint64_t captured_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t header_blocks = 0;
  std::int64_t parse_ns = 0;
  std::int64_t decode_ns = 0;
  std::uint64_t decode_errors = 0;
};

struct WireSetup {
  std::unique_ptr<origin::dataset::Corpus> corpus;
  std::vector<std::vector<origin::web::Webpage>> worlds;
};

// Builds the corpus and picks worlds × pages_per_world pages that are
// fully servable: every resource host has a service whose certificate
// validates for it. Fails when the corpus has too few such pages.
[[nodiscard]] bool build_wire_setup(const WireConfig& config, Tracer* tracer,
                                    WireSetup* setup, std::string* error);

// Options for one world run.
struct WorldRunOptions {
  // Spans for world build, run_until_idle and the post-run decode.
  Tracer* tracer = nullptr;
  // When set: installs the forwarding capture middlebox on every
  // connection, times every vhost handler call, and after the run parses
  // and decodes the captured streams, adding to these counts.
  WireTraceCounts* trace = nullptr;
};

WorldOutput run_world(origin::browser::Environment& env,
                      const std::vector<origin::web::Webpage>& pages,
                      const WorldRunOptions& options);

}  // namespace perfbench
