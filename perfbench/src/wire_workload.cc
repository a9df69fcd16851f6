#include "wire_workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "browser/wire_client.h"
#include "h2/frame.h"
#include "hpack/hpack.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"

namespace perfbench {

namespace browser = origin::browser;
namespace dns = origin::dns;
namespace h2 = origin::h2;
namespace netsim = origin::netsim;
namespace server = origin::server;
namespace util = origin::util;
namespace web = origin::web;

namespace {

// Every response carries the same small body. Http2Server drops a response
// its flow-control window cannot hold, and a client replenishes windows
// only as data arrives, so bodies must stay small enough that a page's
// burst of coalesced requests fits one 64 KiB connection window. The
// workload measures protocol and simulator work, not bulk transfer.
constexpr std::size_t kBodyBytes = 128;

bool servable(browser::Environment& env, const web::Webpage& page) {
  if (page.resources.empty()) return false;
  for (const web::Resource& resource : page.resources) {
    const browser::Service* service = env.find_service(resource.hostname);
    if (service == nullptr || service->certificate == nullptr ||
        service->addresses.empty()) {
      return false;
    }
    if (env.trust_store().validate(*service->certificate, resource.hostname,
                                   util::SimTime::from_micros(0)) !=
        origin::tls::TrustStore::Outcome::kOk) {
      return false;
    }
  }
  return true;
}

// Forwards every byte unchanged and keeps a copy of each connection's two
// streams, in send order, for the post-run decode.
class CaptureMiddlebox : public netsim::Middlebox {
 public:
  struct Stream {
    std::vector<util::Bytes> chunks;
  };
  // Keyed by (connection id, to_server).
  std::map<std::pair<std::uint64_t, bool>, Stream> streams;

  Verdict inspect(std::uint64_t connection_id,
                  std::span<const std::uint8_t> bytes,
                  bool to_server) override {
    streams[{connection_id, to_server}].chunks.emplace_back(bytes.begin(),
                                                            bytes.end());
    return Verdict::kForward;
  }
  std::string name() const override { return "perfbench-capture"; }
};

// Parses one captured direction with h2::FrameParser (chunk by chunk, as
// it was sent) and decodes every complete header block with that
// direction's own HPACK decoder, timing only the parser and decoder calls.
void decode_stream(const CaptureMiddlebox::Stream& stream, bool to_server,
                   WireTraceCounts* counts) {
  h2::FrameParser parser;
  std::vector<h2::Frame> frames;
  std::size_t skip = to_server ? h2::kClientPreface.size() : 0;
  for (const util::Bytes& chunk : stream.chunks) {
    counts->captured_bytes += chunk.size();
    std::span<const std::uint8_t> bytes(chunk);
    const std::size_t preface = std::min(skip, bytes.size());
    bytes = bytes.subspan(preface);
    skip -= preface;
    const auto t0 = Clock::now();
    auto parsed = parser.feed(bytes);
    counts->parse_ns += elapsed_ns(t0, Clock::now());
    if (!parsed.ok()) {
      ++counts->decode_errors;
      return;
    }
    auto parsed_frames = std::move(parsed).value();
    for (h2::Frame& frame : parsed_frames) frames.push_back(std::move(frame));
  }
  counts->frames += frames.size();

  origin::hpack::Decoder decoder;
  util::Bytes block;
  auto decode_block = [&]() {
    const auto t0 = Clock::now();
    auto decoded = decoder.decode(block);
    counts->decode_ns += elapsed_ns(t0, Clock::now());
    ++counts->header_blocks;
    if (!decoded.ok()) ++counts->decode_errors;
    block.clear();
  };
  for (const h2::Frame& frame : frames) {
    if (const auto* headers = std::get_if<h2::HeadersFrame>(&frame)) {
      block = headers->header_block;
      if (headers->end_headers) decode_block();
    } else if (const auto* more = std::get_if<h2::ContinuationFrame>(&frame)) {
      block.insert(block.end(), more->header_block.begin(),
                   more->header_block.end());
      if (more->end_headers) decode_block();
    }
  }
}

}  // namespace

bool build_wire_setup(const WireConfig& config, Tracer* tracer,
                      WireSetup* setup, std::string* error) {
  {
    Tracer::Scope scope(tracer, "dataset.corpus_build");
    origin::dataset::CorpusOptions options;
    options.site_count = config.corpus_sites;
    options.seed = config.seed;
    setup->corpus = std::make_unique<origin::dataset::Corpus>(options);
  }
  Tracer::Scope scope(tracer, "dataset.page_gen");
  origin::dataset::Corpus& corpus = *setup->corpus;
  const std::size_t wanted = config.worlds * config.pages_per_world;
  std::vector<web::Webpage> pages;
  for (std::size_t i = 0; i < corpus.sites().size() && pages.size() < wanted;
       ++i) {
    if (!corpus.sites()[i].crawl_succeeded) continue;
    web::Webpage page = corpus.page_for_site(i);
    if (servable(corpus.env(), page)) pages.push_back(std::move(page));
  }
  if (pages.size() < wanted) {
    *error = "corpus has " + std::to_string(pages.size()) +
             " servable pages; the workload needs " + std::to_string(wanted);
    return false;
  }
  setup->worlds.assign(config.worlds, {});
  for (std::size_t i = 0; i < wanted; ++i) {
    setup->worlds[i / config.pages_per_world].push_back(std::move(pages[i]));
  }
  return true;
}

WorldOutput run_world(browser::Environment& env,
                      const std::vector<web::Webpage>& pages,
                      const WorldRunOptions& options) {
  Tracer* tracer = options.tracer;
  Tracer::Scope world_scope(tracer, "wire.world");
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::map<dns::IpAddress, std::unique_ptr<server::Http2Server>> servers;
  std::vector<std::unique_ptr<browser::WireClient>> clients;
  WireTraceCounts* counts = options.trace;
  auto capture = counts != nullptr ? std::make_shared<CaptureMiddlebox>()
                                   : nullptr;
  WorldOutput output;
  output.loads.resize(pages.size());
  {
    Tracer::Scope scope(tracer, "wire.world_build");
    // Per service (in registration order): the hostnames this world asks
    // of it, each with the paths requested.
    std::map<std::size_t, std::map<std::string, std::set<std::string>>>
        by_service;
    for (const web::Webpage& page : pages) {
      for (const web::Resource& resource : page.resources) {
        by_service[env.service_index(resource.hostname)][resource.hostname]
            .insert(resource.path);
      }
    }
    std::map<dns::IpAddress, std::set<std::string>> origins;
    for (const auto& [index, hosts] : by_service) {
      const browser::Service& service = env.services()[index];
      for (const dns::IpAddress& address : service.addresses) {
        auto& slot = servers[address];
        if (slot == nullptr) slot = std::make_unique<server::Http2Server>();
        slot->set_certificate(*service.certificate);
        for (const auto& [hostname, paths] : hosts) {
          origins[address].insert("https://" + hostname);
          slot->add_vhost(hostname, [paths, counts](std::string_view path) {
            const auto t0 = Clock::now();
            server::Response response;
            if (paths.contains(std::string(path))) {
              response.content_type = "application/octet-stream";
              response.body.assign(kBodyBytes, 0x61);
            } else {
              response.status = 404;
            }
            if (counts != nullptr) {
              counts->handler_ns += elapsed_ns(t0, Clock::now());
              ++counts->handler_calls;
            }
            return response;
          });
        }
      }
    }
    for (auto& [address, http2] : servers) {
      http2->set_origin_set(std::vector<std::string>(
          origins[address].begin(), origins[address].end()));
      http2->listen(net, address);
    }
    if (capture != nullptr) net.install_middlebox("", capture);
    browser::LoaderOptions loader;
    loader.policy = "origin-frame";
    for (std::size_t i = 0; i < pages.size(); ++i) {
      clients.push_back(std::make_unique<browser::WireClient>(env, net, loader));
    }
  }
  for (std::size_t i = 0; i < pages.size(); ++i) {
    clients[i]->load(pages[i], [&output, i](browser::WireLoadResult result) {
      LoadCounts& counts = output.loads[i];
      counts.complete = result.complete;
      counts.success = result.har.success;
      counts.connections_opened = result.connections_opened;
      counts.coalesced_requests = result.coalesced_requests;
      counts.retries_after_421 = result.retries_after_421;
      counts.dns_queries = result.har.dns_query_count();
      counts.tls_handshakes = result.har.tls_connection_count();
      counts.requests = result.har.entries.size();
    });
  }
  {
    Tracer::Scope scope(tracer, "netsim.run");
    sim.run_until_idle();
  }
  output.sim_events = sim.executed_events();
  output.bytes_sent = net.stats().bytes_sent;
  for (const auto& [address, http2] : servers) {
    const server::Http2Server::Stats& stats = http2->stats();
    output.ledger += "server " + address.to_string() + "\n" + stats.serialize();
    output.origin_frames_sent += stats.origin_frames_sent;
    output.responses_421 += stats.responses_421;
    output.server_requests += stats.requests;
  }
  if (capture != nullptr) {
    Tracer::Scope scope(tracer, "wire.decode");
    for (const auto& [key, stream] : capture->streams) {
      decode_stream(stream, key.second, counts);
    }
  }
  return output;
}

}  // namespace perfbench
