#include <gtest/gtest.h>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "h2/middleboxes.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"

namespace origin::browser {
namespace {

using dns::IpAddress;
using origin::util::SimTime;

server::Handler static_body(std::string body) {
  return [body = std::move(body)](std::string_view) {
    server::Response response;
    response.body = origin::util::from_string(body);
    return response;
  };
}

// End-to-end world: real Http2Server instances bound on netsim addresses,
// an Environment describing the same deployment for the client's DNS and
// certificate checks, and a WireClient loading pages through it all.
struct WireWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  Environment env;
  server::Http2Server cdn_server;
  server::Http2Server tracker_server;
  Service* cdn = nullptr;

  explicit WireWorld(bool origin_frames = true) {
    std::vector<std::string> cdn_hosts = {"www.site.com", "static.site.com"};
    // The cert also covers phantom.site.com for the 421 test: coverage
    // without reachability is precisely the 421 scenario (§2.2).
    auto cert = *env.default_ca().issue(
        "www.site.com",
        {"www.site.com", "static.site.com", "phantom.site.com"},
        SimTime::from_micros(0));
    Service cdn_service;
    cdn_service.name = "cdn";
    cdn_service.asn = 13335;
    cdn_service.provider = "ExampleCDN";
    cdn_service.addresses = {IpAddress::v4(0x0A000001)};
    cdn_service.served_hostnames = {cdn_hosts.begin(), cdn_hosts.end()};
    cdn_service.certificate = std::make_shared<tls::Certificate>(cert);
    cdn = &env.add_service(std::move(cdn_service));

    server::ServerConfig config;
    if (origin_frames) {
      config.origin_set = {"https://www.site.com", "https://static.site.com"};
    }
    cdn_server = server::Http2Server(config);
    cdn_server.set_certificate(cert);
    cdn_server.add_vhost("www.site.com", static_body("<html>base</html>"));
    cdn_server.add_vhost("static.site.com", static_body("body{}"));
    cdn_server.listen(net, IpAddress::v4(0x0A000001));

    auto tracker_cert = *env.default_ca().issue(
        "tracker.net", {"tracker.net"}, SimTime::from_micros(0));
    Service tracker_service;
    tracker_service.name = "tracker";
    tracker_service.asn = 15169;
    tracker_service.provider = "TrackerCo";
    tracker_service.addresses = {IpAddress::v4(0x0B000001)};
    tracker_service.served_hostnames = {"tracker.net"};
    tracker_service.certificate =
        std::make_shared<tls::Certificate>(tracker_cert);
    env.add_service(std::move(tracker_service));

    tracker_server.set_certificate(tracker_cert);
    tracker_server.add_vhost("tracker.net", static_body("track();"));
    tracker_server.listen(net, IpAddress::v4(0x0B000001));
  }

  web::Webpage page() const {
    web::Webpage page;
    page.tranco_rank = 7;
    page.base_hostname = "www.site.com";
    web::Resource base;
    base.hostname = "www.site.com";
    base.path = "/";
    base.mode = web::RequestMode::kNavigation;
    page.resources.push_back(base);
    web::Resource js;
    js.hostname = "static.site.com";
    js.path = "/app.js";
    js.parent = 0;
    js.discovery_cpu_ms = 1.0;
    page.resources.push_back(js);
    web::Resource tracker;
    tracker.hostname = "tracker.net";
    tracker.path = "/t.js";
    tracker.parent = 0;
    tracker.discovery_cpu_ms = 1.0;
    page.resources.push_back(tracker);
    return page;
  }

  WireLoadResult run(const std::string& policy) {
    LoaderOptions options;
    options.policy = policy;
    WireClient client(env, net, options);
    WireLoadResult result;
    bool done = false;
    client.load(page(), [&](WireLoadResult r) {
      result = std::move(r);
      done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(done);
    return result;
  }
};

TEST(Http2ServerTest, ServesVhostsAndCounts) {
  WireWorld world;
  auto result = world.run("origin-frame");
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(world.cdn_server.stats().requests, 2u);
  EXPECT_EQ(world.cdn_server.stats().responses_200, 2u);
  EXPECT_EQ(world.tracker_server.stats().requests, 1u);
}

TEST(WireClientTest, OriginPolicyCoalescesOverRealFrames) {
  WireWorld world(/*origin_frames=*/true);
  auto result = world.run("origin-frame");
  EXPECT_TRUE(result.complete);
  // static.site.com rode the www connection: 2 connections, 1 coalesced.
  EXPECT_EQ(result.connections_opened, 2u);
  EXPECT_GE(result.coalesced_requests, 1u);
  EXPECT_EQ(world.cdn_server.stats().connections, 1u);
  EXPECT_EQ(world.cdn_server.stats().origin_frames_sent, 1u);
}

// Answers every request 200 and advertises its origin set only behind its
// first response, so the ORIGIN frame reaches a client whose connection
// record has existed since the handshake.
struct LateOriginServer {
  struct Session {
    std::shared_ptr<h2::Connection> h2;
    netsim::TcpEndpoint endpoint;
    bool origin_sent = false;
  };
  std::vector<std::string> origins;
  std::vector<std::shared_ptr<Session>> sessions;

  void listen(netsim::Network& net, IpAddress address) {
    net.listen(address, [this](netsim::TcpEndpoint endpoint) {
      auto session = std::make_shared<Session>();
      session->endpoint = endpoint;
      session->h2 = std::make_shared<h2::Connection>(
          h2::Connection::Role::kServer, h2::Origin{});
      Session* raw = session.get();
      h2::ConnectionCallbacks callbacks;
      callbacks.on_headers = [this, raw](std::uint32_t stream_id,
                                         const hpack::HeaderList&, bool) {
        EXPECT_TRUE(
            raw->h2->submit_response(stream_id, {{":status", "200"}}, true)
                .ok());
        if (!raw->origin_sent) {
          EXPECT_TRUE(raw->h2->submit_origin(origins).ok());
          raw->origin_sent = true;
        }
      };
      session->h2->set_callbacks(std::move(callbacks));
      session->endpoint.set_on_receive(
          [raw](std::span<const std::uint8_t> bytes) {
            EXPECT_TRUE(raw->h2->receive(bytes).ok());
            if (raw->h2->has_output()) {
              raw->endpoint.send(raw->h2->take_output());
            }
          });
      session->endpoint.send(session->h2->take_output());
      sessions.push_back(std::move(session));
    });
  }
};

TEST(WireClientTest, OriginFrameAfterTheRecordStillAdmitsLaterRequests) {
  // The record reads the connection's live origin set: an ORIGIN frame
  // that lands after the record was made still admits static.site.com
  // without DNS. Its own answer (another address) shares nothing with the
  // connection's, so nothing but the origin set could coalesce it.
  netsim::Simulator sim;
  netsim::Network net(sim);
  Environment env;
  auto cert = std::make_shared<tls::Certificate>(*env.default_ca().issue(
      "www.site.com", {"www.site.com", "static.site.com"},
      SimTime::from_micros(0)));
  for (const auto& [host, address] :
       {std::pair<std::string, std::uint32_t>{"www.site.com", 0x0A000001},
        std::pair<std::string, std::uint32_t>{"static.site.com",
                                              0x0A000002}}) {
    Service service;
    service.name = host;
    service.addresses = {IpAddress::v4(address)};
    service.served_hostnames = {host};
    service.certificate = cert;
    env.add_service(std::move(service));
  }
  LateOriginServer server;
  server.origins = {"https://www.site.com", "https://static.site.com"};
  server.listen(net, IpAddress::v4(0x0A000001));

  web::Webpage page;
  page.base_hostname = "www.site.com";
  web::Resource base;
  base.hostname = "www.site.com";
  base.path = "/";
  base.mode = web::RequestMode::kNavigation;
  page.resources.push_back(base);
  web::Resource child = base;
  child.hostname = "static.site.com";
  child.path = "/app.js";
  child.parent = 0;
  child.mode = web::RequestMode::kSubresource;
  child.discovery_cpu_ms = 1.0;
  page.resources.push_back(child);

  LoaderOptions options;
  options.policy = "origin-frame";
  WireClient client(env, net, options);
  WireLoadResult result;
  client.load(page, [&result](WireLoadResult r) { result = std::move(r); });
  sim.run_until_idle();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.har.success);
  EXPECT_EQ(result.connections_opened, 1u);
  EXPECT_EQ(result.coalesced_requests, 1u);
  ASSERT_EQ(result.har.entries.size(), 2u);
  EXPECT_FALSE(result.har.entries[1].new_dns_query);
  EXPECT_EQ(result.har.entries[1].connection_id,
            result.har.entries[0].connection_id);
  ASSERT_EQ(server.sessions.size(), 1u);
}

TEST(WireClientTest, ChromiumPolicyCoalescesViaIpMatch) {
  WireWorld world(/*origin_frames=*/false);
  auto result = world.run("chromium-ip");
  EXPECT_TRUE(result.complete);
  // Same address for both hosts, answer contains the connected IP.
  EXPECT_EQ(result.connections_opened, 2u);
}

TEST(WireClientTest, MisdirectedRequestRetriesOnNewConnection) {
  WireWorld world(/*origin_frames=*/true);
  // The server advertises static.site.com but loses its vhost (content
  // moved): coalesced requests draw 421 and the client retries.
  server::ServerConfig config;
  config.origin_set = {"https://www.site.com", "https://static.site.com"};
  world.cdn_server = server::Http2Server(config);
  world.cdn_server.add_vhost("www.site.com", static_body("<html>base</html>"));
  world.cdn_server.listen(world.net, IpAddress::v4(0x0A000001));

  auto result = world.run("origin-frame");
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.retries_after_421, 1u);
  // Two 421s: the coalesced attempt and the dedicated retry.
  EXPECT_EQ(world.cdn_server.stats().responses_421, 2u);
  // The retry opened a dedicated connection, which the same (misconfigured)
  // deployment answers 421 again — terminal failure for that resource, but
  // the rest of the page survives (fail-open).
  EXPECT_FALSE(result.har.success);
}

TEST(WireClientTest, StrictMiddleboxKillsOriginConnections) {
  // §6.7 end-to-end: with the buggy agent in path, ORIGIN-bearing
  // connections die and their requests fail.
  WireWorld world(/*origin_frames=*/true);
  world.net.install_middlebox("wire-client",
                              std::make_shared<h2::StrictFrameMiddlebox>());
  auto result = world.run("origin-frame");
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.robustness.connections_torn_down, 0u);
  EXPECT_FALSE(result.har.success);
}

TEST(WireClientTest, MiddleboxHarmlessWithoutOriginFrames) {
  // Same agent, but the server does not send ORIGIN: nothing to trip on.
  WireWorld world(/*origin_frames=*/false);
  world.net.install_middlebox("wire-client",
                              std::make_shared<h2::StrictFrameMiddlebox>());
  auto result = world.run("chromium-ip");
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty()) << result.errors.front();
  EXPECT_EQ(result.robustness.connections_torn_down, 0u);
}

TEST(WireClientTest, HarTimingsAreCausallyOrdered) {
  WireWorld world;
  auto result = world.run("origin-frame");
  ASSERT_EQ(result.har.entries.size(), 3u);
  const auto& base = result.har.entries[0];
  for (std::size_t i = 1; i < result.har.entries.size(); ++i) {
    EXPECT_GE(result.har.entries[i].start.micros(), base.end().micros());
  }
  EXPECT_GT(result.har.page_load_time().as_millis(), 0.0);
}

TEST(WireClientTest, UnknownVhostGets421) {
  WireWorld world;
  auto page = world.page();
  // A host the cert covers (wildcard-free world: reuse not attempted since
  // cert does not cover) — point it at the CDN service explicitly.
  Service phantom;
  phantom.name = "phantom";
  phantom.asn = 13335;
  phantom.provider = "ExampleCDN";
  phantom.addresses = {IpAddress::v4(0x0A000001)};
  phantom.served_hostnames = {"phantom.site.com"};
  phantom.certificate = world.cdn->certificate;
  world.env.add_service(std::move(phantom));

  web::Resource extra;
  extra.hostname = "phantom.site.com";
  extra.path = "/x";
  extra.parent = 0;
  page.resources.push_back(extra);

  LoaderOptions options;
  options.policy = "origin-frame";
  WireClient client(world.env, world.net, options);
  WireLoadResult result;
  client.load(page, [&](WireLoadResult r) { result = std::move(r); });
  world.sim.run_until_idle();
  EXPECT_TRUE(result.complete);
  // phantom.site.com reaches the CDN server (DNS points there) but has no
  // vhost: 421 on its own connection, recorded as a failure.
  EXPECT_GE(world.cdn_server.stats().responses_421, 1u);
}

}  // namespace
}  // namespace origin::browser
