// util::AllocGuard — the runtime half of the ORIGIN_HOT contract. The
// first tests pin the counting hook itself; the model test then turns the
// claim that a warm AnalysisScratch allocates nothing into a failing
// assertion instead of a bench number.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "browser/page_loader.h"
#include "browser/wire_client.h"
#include "dataset/generator.h"
#include "model/coalescing_model.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/alloc_guard.h"
#include "web/har_json.h"

namespace origin::util {
namespace {

// Defeats the optimizer: without an escape, -O2 may elide the whole
// new/delete pair and the guard would (correctly) count nothing.
void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(AllocGuardTest, CountsOperatorNew) {
  ASSERT_TRUE(alloc_hook_touch()) << "global operator new not replaced";
  AllocGuard guard;
  auto* p = new int(42);
  escape(p);
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.bytes(), sizeof(int));
  delete p;
}

TEST(AllocGuardTest, CountsVectorGrowth) {
  AllocGuard guard;
  std::vector<int> v;
  v.reserve(1000);
  escape(v.data());
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.bytes(), 1000 * sizeof(int));
}

TEST(AllocGuardTest, ResetRestartsTheWindow) {
  AllocGuard guard;
  auto* p = new double(1.0);
  escape(p);
  delete p;
  EXPECT_GE(guard.allocations(), 1u);
  guard.reset();
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(guard.bytes(), 0u);
}

TEST(AllocGuardTest, DeliberateHotPathAllocationIsCaught) {
  // The shape the analyze alloc pass forbids in ORIGIN_HOT code; the
  // guard is the runtime net for anything the static pass cannot see
  // (allocation behind a call boundary).
  auto hot_path_with_hidden_allocation = [] {
    auto owned = std::make_unique<std::string>("should not happen");
    escape(owned.get());
    return owned->size();
  };
  AllocGuard guard;
  hot_path_with_hidden_allocation();
  EXPECT_GT(guard.allocations(), 0u)
      << "a hidden allocation must not escape the guard";
}

// --- the model batch pair's steady state --------------------------------

// Mirrors tests/model_test.cc's world: one CDN spanning three hostnames
// plus an independent tracker, loaded with the chromium-ip policy.
struct ReplayWorld {
  browser::Environment env;

  ReplayWorld() {
    auto add = [&](const std::string& name, std::uint32_t asn,
                   const std::string& provider,
                   std::vector<std::string> hosts,
                   std::vector<std::string> sans, std::uint32_t addr) {
      browser::Service service;
      service.name = name;
      service.asn = asn;
      service.provider = provider;
      service.addresses = {dns::IpAddress::v4(addr)};
      service.served_hostnames = {hosts.begin(), hosts.end()};
      service.certificate = std::make_shared<tls::Certificate>(
          *env.default_ca().issue(hosts[0], sans,
                                  util::SimTime::from_micros(0)));
      env.add_service(std::move(service));
    };
    add("site", 100, "CDN", {"www.site.com", "img.site.com"},
        {"www.site.com"}, 0x0A000001);
    add("popular", 100, "CDN", {"lib.cdn.com"}, {"lib.cdn.com"}, 0x0A000002);
    add("tracker", 200, "Tracker", {"t.tracker.net"}, {"t.tracker.net"},
        0x0B000001);
  }

  web::PageLoad load() {
    web::Webpage page;
    page.base_hostname = "www.site.com";
    auto push = [&page](const std::string& host, int parent) {
      web::Resource resource;
      resource.hostname = host;
      resource.parent = parent;
      resource.discovery_cpu_ms = 5;
      if (parent < 0) resource.mode = web::RequestMode::kNavigation;
      page.resources.push_back(resource);
    };
    push("www.site.com", -1);
    push("img.site.com", 0);
    push("lib.cdn.com", 0);
    push("t.tracker.net", 0);
    push("img.site.com", 1);

    browser::LoaderOptions options;
    options.policy = "chromium-ip";
    options.happy_eyeballs_extra_dns = 0;
    options.speculative_extra_connection = 0;
    browser::PageLoader loader(env, options);
    return loader.load(page);
  }
};

std::vector<web::PageLoad> clone_pages(const web::PageLoad& page,
                                       std::size_t count) {
  return std::vector<web::PageLoad>(count, page);
}

// One analyze_batch + reconstruct_batch pass at threads == 1, the serial
// inline path, where every allocation lands on the calling thread.
std::uint64_t batch_pair_allocations(const model::CoalescingModel& model,
                                     const std::vector<web::PageLoad>& pages) {
  AllocGuard guard;
  const auto analyses = model.analyze_batch(pages, /*threads=*/1);
  auto rebuilt = model.reconstruct_batch(pages, analyses, "", 1);
  escape(rebuilt.data());
  return guard.allocations();
}

// Once the symbol table and the scratch arenas are warm, the batch pair
// allocates only what it returns: per page, the PageAnalysis::entries
// vector and the reconstructed copy of the page. So going from 8 to 16
// pages adds exactly 8 × (1 + one page copy's allocations), and what is
// left is the fixed cost of dispatching the two batches.
TEST(AllocGuardTest, WarmBatchPairAllocatesOnlyItsOutput) {
  ReplayWorld world;
  const web::PageLoad page = world.load();
  ASSERT_FALSE(page.entries.empty());
  model::CoalescingModel model(world.env);

  std::uint64_t page_copy = 0;
  {
    AllocGuard guard;
    web::PageLoad copy = page;
    escape(&copy);
    page_copy = guard.allocations();
  }
  ASSERT_GT(page_copy, 0u);
  const std::uint64_t per_page = 1 + page_copy;

  // Warm-up: interns every group symbol and sizes the thread-local
  // scratch.
  (void)batch_pair_allocations(model, clone_pages(page, 4));

  constexpr std::size_t kSmall = 8;
  constexpr std::size_t kLarge = 16;
  const auto small_batch = clone_pages(page, kSmall);
  const auto large_batch = clone_pages(page, kLarge);
  const std::uint64_t small = batch_pair_allocations(model, small_batch);
  const std::uint64_t large = batch_pair_allocations(model, large_batch);

  EXPECT_EQ(large, small + (kLarge - kSmall) * per_page)
      << "the warm batch pair allocates per page beyond its output";
  ASSERT_GE(small, kSmall * per_page);
  // What is left is per call, not per page: the two returned vectors and
  // the two batches' dispatch, 8 allocations with GCC 12.2.
  EXPECT_LE(small - kSmall * per_page, 8u) << "fixed overhead";
}

// The corpus digest folds each page's HAR text into the FNV state as it
// is written, from tables built at compile time, and renders no text: it
// touches the heap not at all, from the first call on.
TEST(AllocGuardTest, HarDigestAllocatesNothingFromTheFirstCall) {
  ReplayWorld world;
  const web::PageLoad page = world.load();
  ASSERT_FALSE(page.entries.empty());

  AllocGuard guard;
  const std::uint64_t first = web::har_digest(page, 0);
  std::uint64_t digest = first;
  for (int i = 0; i < 16; ++i) digest = web::har_digest(page, digest);
  escape(&digest);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(web::har_digest(page, 0), first);
}


// --- the wire path's allocation count ------------------------------------

// One wire world in the shape of the repository benchmark's wire-origin
// workload: the first eight golden-corpus pages whose every host has a
// service with a certificate that validates for it, one Http2Server per
// service address (each serving every vhost there and advertising them in
// an ORIGIN frame), and one origin-frame WireClient per page, run on one
// thread until the simulator is idle.
struct WireWorldCount {
  std::uint64_t allocations = 0;
  std::size_t requests = 0;
  std::size_t coalesced = 0;
  std::size_t connections = 0;
  std::size_t complete_loads = 0;
  std::uint64_t events = 0;
};

WireWorldCount count_wire_world() {
  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = 1'000;
  corpus_options.seed = 42;
  dataset::Corpus corpus(corpus_options);
  browser::Environment& env = corpus.env();
  auto servable = [&env](const web::Webpage& page) {
    if (page.resources.empty()) return false;
    for (const web::Resource& resource : page.resources) {
      const browser::Service* service = env.find_service(resource.hostname);
      if (service == nullptr || service->certificate == nullptr ||
          service->addresses.empty() ||
          env.trust_store().validate(*service->certificate, resource.hostname,
                                     SimTime::from_micros(0)) !=
              tls::TrustStore::Outcome::kOk) {
        return false;
      }
    }
    return true;
  };
  std::vector<web::Webpage> pages;
  for (std::size_t i = 0; i < corpus.sites().size() && pages.size() < 8; ++i) {
    if (!corpus.sites()[i].crawl_succeeded) continue;
    web::Webpage page = corpus.page_for_site(i);
    if (servable(page)) pages.push_back(std::move(page));
  }

  WireWorldCount count;
  AllocGuard guard;
  {
    netsim::Simulator sim;
    netsim::Network net(sim);
    std::map<std::size_t, std::map<std::string, std::set<std::string>>>
        by_service;
    for (const web::Webpage& page : pages) {
      for (const web::Resource& resource : page.resources) {
        by_service[env.service_index(resource.hostname)][resource.hostname]
            .insert(resource.path);
      }
    }
    std::map<dns::IpAddress, std::unique_ptr<server::Http2Server>> servers;
    std::map<dns::IpAddress, std::set<std::string>> origins;
    for (const auto& [index, hosts] : by_service) {
      const browser::Service& service = env.services()[index];
      for (const dns::IpAddress& address : service.addresses) {
        auto& http2 = servers[address];
        if (http2 == nullptr) http2 = std::make_unique<server::Http2Server>();
        http2->set_certificate(*service.certificate);
        for (const auto& [hostname, paths] : hosts) {
          origins[address].insert("https://" + hostname);
          http2->add_vhost(hostname, [paths](std::string_view path) {
            server::Response response;
            if (paths.contains(std::string(path))) {
              response.content_type = "application/octet-stream";
              response.body.assign(128, 0x61);
            } else {
              response.status = 404;
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
    browser::LoaderOptions loader;
    loader.policy = "origin-frame";
    std::vector<std::unique_ptr<browser::WireClient>> clients;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      clients.push_back(
          std::make_unique<browser::WireClient>(env, net, loader));
      clients.back()->load(pages[i], [&count](browser::WireLoadResult r) {
        count.requests += r.har.entries.size();
        count.coalesced += r.coalesced_requests;
        count.connections += r.connections_opened;
        if (r.complete && r.har.success) ++count.complete_loads;
      });
    }
    sim.run_until_idle();
    count.events = sim.executed_events();
  }
  count.allocations = guard.allocations();
  return count;
}

// Every allocation the wire world makes, from server and client setup
// through the last simulator event, on the calling thread. The count is
// exact for a toolchain, so the bound is host-independent. When simulator
// events were still copied out of the queue, connections looked up in a
// map, frames serialized into temporaries and parsed from a copy, and the
// client copied certificates and origin sets per connection and per
// candidate, this world made 88,523 allocations for its 938 requests
// (94.4 per request, GCC 12.2). The bound keeps at least a third of that
// off the allocator.
TEST(AllocGuardTest, WireWorldAllocationsPerRequestAreBounded) {
  const WireWorldCount count = count_wire_world();
  ASSERT_EQ(count.complete_loads, 8u);
  ASSERT_EQ(count.requests, 938u);
  EXPECT_EQ(count.events, 5271u);
  constexpr std::uint64_t kCopyingAllocations = 88'523;
  EXPECT_LE(count.allocations * 3, kCopyingAllocations * 2)
      << count.allocations << " allocations for " << count.requests
      << " requests";
}

}  // namespace
}  // namespace origin::util
