#include <gtest/gtest.h>

#include <optional>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "h2/connection.h"
#include "h2/middleboxes.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"

namespace origin::netsim {
namespace {

using origin::dns::IpAddress;
using origin::h2::AuthorityPinningMiddlebox;
using origin::h2::FrameReorderingMiddlebox;
using origin::h2::PassiveInspector;
using origin::h2::StrictFrameMiddlebox;
using origin::h2::TeardownOnTypeMiddlebox;
using origin::util::Bytes;
using origin::util::Duration;
using origin::util::SimTime;

TEST(SimulatorTest, EventsRunInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().as_millis(), 30.0);
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Duration::millis(1), [&, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(1), [&] {
    fired++;
    sim.schedule(Duration::millis(1), [&] { fired++; });
  });
  sim.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().as_millis(), 2.0);
}

TEST(SimulatorTest, EqualTimesFireInScheduleOrderAcrossNesting) {
  // Events at one timestamp fire in the order they were scheduled, and an
  // event scheduled from inside a running one, for a time already queued,
  // fires after every event scheduled before it.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Duration::millis(1), [&] {
    order.push_back(0);
    // Due at 2 ms with every event below already queued for it: last.
    sim.schedule(Duration::millis(1), [&] { order.push_back(69); });
    sim.schedule(Duration::micros(0), [&] { order.push_back(2); });
  });
  sim.schedule(Duration::millis(1), [&] {
    order.push_back(1);
    sim.schedule(Duration::micros(0), [&] { order.push_back(3); });
  });
  sim.schedule(Duration::millis(2), [&] { order.push_back(4); });
  for (int i = 0; i < 64; ++i) {
    // Enough equal-time events to make the heap grow while it runs.
    sim.schedule(Duration::millis(2), [&order, i] { order.push_back(5 + i); });
  }
  sim.run_until_idle();
  std::vector<int> expected(70);
  for (int i = 0; i < 70; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.executed_events(), 70u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Duration::millis(5), [&] { fired++; });
  sim.schedule(Duration::millis(50), [&] { fired++; });
  sim.run_until(SimTime::from_micros(10'000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(sim.now().as_millis(), 10.0);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule(Duration::millis(10), [] {});
  sim.run_until_idle();
  bool fired = false;
  sim.schedule_at(SimTime::from_micros(0), [&] { fired = true; });
  sim.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_GE(sim.now().as_millis(), 10.0);
}

struct EchoServer {
  void accept(TcpEndpoint endpoint) {
    // TcpEndpoint is a small copyable handle; capture it by value.
    endpoint.set_on_receive([endpoint](std::span<const std::uint8_t> bytes) mutable {
      endpoint.send(Bytes(bytes.begin(), bytes.end()));
    });
  }
};

TEST(NetworkTest, ConnectHandshakeCostsOneRtt) {
  Simulator sim;
  Network net(sim);
  LinkParams link;
  link.one_way = Duration::millis(25);
  net.set_default_link(link);
  net.listen(IpAddress::v4(1), [](TcpEndpoint) {});
  SimTime connected_at;
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                connected_at = sim.now();
              });
  sim.run_until_idle();
  EXPECT_DOUBLE_EQ(connected_at.as_millis(), 50.0);
  EXPECT_EQ(net.stats().tcp_handshakes, 1u);
}

TEST(NetworkTest, ConnectionRefusedWithoutListener) {
  Simulator sim;
  Network net(sim);
  bool failed = false;
  net.connect("client", IpAddress::v4(99),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                failed = !endpoint.ok();
              });
  sim.run_until_idle();
  EXPECT_TRUE(failed);
  EXPECT_EQ(net.stats().connect_failures, 1u);
}

TEST(NetworkTest, EchoRoundTrip) {
  Simulator sim;
  Network net(sim);
  LinkParams link;
  link.one_way = Duration::millis(10);
  net.set_default_link(link);
  EchoServer server;
  net.listen(IpAddress::v4(1),
             [&server](TcpEndpoint endpoint) { server.accept(endpoint); });

  std::string received;
  SimTime reply_at;
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                auto client = std::make_shared<TcpEndpoint>(*endpoint);
                client->set_on_receive(
                    [&, client](std::span<const std::uint8_t> bytes) {
                      received.assign(bytes.begin(), bytes.end());
                      reply_at = sim.now();
                    });
                client->send(origin::util::from_string("ping"));
              });
  sim.run_until_idle();
  EXPECT_EQ(received, "ping");
  // 1 RTT connect (20ms) + 1 RTT echo (20ms) + serialization (~0).
  EXPECT_NEAR(reply_at.as_millis(), 40.0, 1.0);
}

TEST(NetworkTest, PerServerLinkOverride) {
  Simulator sim;
  Network net(sim);
  LinkParams slow;
  slow.one_way = Duration::millis(100);
  net.set_link_to(IpAddress::v4(2), slow);
  net.listen(IpAddress::v4(2), [](TcpEndpoint) {});
  SimTime connected_at;
  net.connect("client", IpAddress::v4(2),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                connected_at = sim.now();
              });
  sim.run_until_idle();
  EXPECT_DOUBLE_EQ(connected_at.as_millis(), 200.0);
}

TEST(NetworkTest, SerializationDelayScalesWithBytes) {
  Simulator sim;
  Network net(sim);
  LinkParams link;
  link.one_way = Duration::millis(1);
  link.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  net.set_default_link(link);
  EchoServer server;
  net.listen(IpAddress::v4(1),
             [&server](TcpEndpoint endpoint) { server.accept(endpoint); });
  std::size_t received = 0;
  SimTime done_at;
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                auto client = std::make_shared<TcpEndpoint>(*endpoint);
                client->set_on_receive(
                    [&, client](std::span<const std::uint8_t> bytes) {
                      received += bytes.size();
                      done_at = sim.now();
                    });
                client->send(Bytes(100000, 0x5a));  // 100 KB = 100ms each way
              });
  sim.run_until_idle();
  EXPECT_EQ(received, 100000u);
  // connect 2ms + 2 * (100ms serialization + 1ms latency).
  EXPECT_NEAR(done_at.as_millis(), 204.0, 2.0);
}

TEST(NetworkTest, CloseNotifiesBothSides) {
  Simulator sim;
  Network net(sim);
  std::string server_reason, client_reason;
  std::shared_ptr<TcpEndpoint> server_end;
  net.listen(IpAddress::v4(1), [&](TcpEndpoint endpoint) {
    server_end = std::make_shared<TcpEndpoint>(endpoint);
    server_end->set_on_close(
        [&](const std::string& reason) { server_reason = reason; });
  });
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                auto client = std::make_shared<TcpEndpoint>(*endpoint);
                client->set_on_close(
                    [&, client](const std::string& reason) { client_reason = reason; });
                client->close("done");
              });
  sim.run_until_idle();
  EXPECT_EQ(server_reason, "done");
  EXPECT_EQ(client_reason, "done");
}

TEST(NetworkTest, ReapedConnectionFindsNothingAndIdsStayDense) {
  Simulator sim;
  Network net(sim);
  net.listen(IpAddress::v4(1), [](TcpEndpoint) {});
  std::optional<TcpEndpoint> first;
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                first = *endpoint;
              });
  sim.run_until_idle();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->connection_id(), 1u);
  EXPECT_TRUE(first->open());
  EXPECT_EQ(first->client_tag(), "client");

  first->close("done");
  sim.run_until_idle();  // the close event reaps the connection
  EXPECT_FALSE(first->open());
  EXPECT_EQ(first->client_tag(), "");
  // A reaped endpoint sends nothing and takes no callback.
  bool received = false;
  first->set_on_receive(
      [&received](std::span<const std::uint8_t>) { received = true; });
  const std::uint64_t bytes_before = net.stats().bytes_sent;
  first->send(origin::util::from_string("late"));
  sim.run_until_idle();
  EXPECT_FALSE(received);
  EXPECT_EQ(net.stats().bytes_sent, bytes_before);

  // The next connect gets the next id; the reaped one is never reused.
  std::optional<TcpEndpoint> second;
  net.connect("client", IpAddress::v4(1),
              [&](origin::util::Result<TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                second = *endpoint;
              });
  sim.run_until_idle();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->connection_id(), 2u);
  EXPECT_TRUE(second->open());
  EXPECT_FALSE(first->open());
}

// --- HTTP/2 over the simulated network ---

struct H2OverNet {
  Simulator sim;
  Network net{sim};
  std::shared_ptr<h2::Connection> server_conn;
  std::shared_ptr<TcpEndpoint> server_end;
  std::shared_ptr<h2::Connection> client_conn;
  std::shared_ptr<TcpEndpoint> client_end;
  bool client_closed = false;

  static h2::Origin origin_of(const std::string& host) {
    h2::Origin o;
    o.host = host;
    return o;
  }

  // Wires an h2 connection onto an endpoint: receive -> h2, h2 output ->
  // send, after every receive.
  static void attach(std::shared_ptr<h2::Connection> conn,
                     std::shared_ptr<TcpEndpoint> endpoint) {
    endpoint->set_on_receive([conn, endpoint](std::span<const std::uint8_t> b) {
      (void)conn->receive(b);
      if (conn->has_output() && endpoint->open()) {
        endpoint->send(conn->take_output());
      }
    });
  }

  void start(std::shared_ptr<Middlebox> middlebox = nullptr) {
    if (middlebox) net.install_middlebox("client", middlebox);
    net.listen(IpAddress::v4(1), [this](TcpEndpoint endpoint) {
      server_conn = std::make_shared<h2::Connection>(
          h2::Connection::Role::kServer, origin_of("www.example.com"));
      server_end = std::make_shared<TcpEndpoint>(endpoint);
      attach(server_conn, server_end);
      h2::ConnectionCallbacks callbacks;
      // The callback is stored inside *server_conn, so capturing the
      // shared_ptr would make the connection own itself (leak cycle);
      // the raw pointer is valid for exactly the callback's lifetime.
      h2::Connection* conn = server_conn.get();
      auto end = server_end;
      callbacks.on_headers = [conn, end](std::uint32_t stream,
                                         const hpack::HeaderList&, bool) {
        (void)conn->submit_origin({"https://www.example.com",
                                   "https://static.example.com"});
        (void)conn->submit_response(stream, {{":status", "200"}}, true);
        if (end->open()) end->send(conn->take_output());
      };
      server_conn->set_callbacks(std::move(callbacks));
      if (server_conn->has_output()) server_end->send(server_conn->take_output());
    });
    net.connect("client", IpAddress::v4(1),
                [this](origin::util::Result<TcpEndpoint> endpoint) {
                  ASSERT_TRUE(endpoint.ok());
                  client_conn = std::make_shared<h2::Connection>(
                      h2::Connection::Role::kClient,
                      origin_of("www.example.com"));
                  client_end = std::make_shared<TcpEndpoint>(*endpoint);
                  attach(client_conn, client_end);
                  client_end->set_on_close(
                      [this](const std::string&) { client_closed = true; });
                  (void)client_conn->submit_request({{":method", "GET"},
                                                     {":scheme", "https"},
                                                     {":authority", "www.example.com"},
                                                     {":path", "/"}},
                                                    true);
                  client_end->send(client_conn->take_output());
                });
  }
};

TEST(NetworkTest, H2ExchangeOverSimulatedNetwork) {
  H2OverNet harness;
  harness.start();
  harness.sim.run_until_idle();
  ASSERT_NE(harness.client_conn, nullptr);
  EXPECT_TRUE(harness.client_conn->origin_set().received_origin_frame());
  EXPECT_TRUE(harness.client_conn->origin_set().contains("static.example.com"));
  EXPECT_FALSE(harness.client_closed);
}

TEST(Middleboxes, PassiveInspectorForwardsEverything) {
  auto inspector = std::make_shared<PassiveInspector>();
  H2OverNet harness;
  harness.start(inspector);
  harness.sim.run_until_idle();
  EXPECT_FALSE(harness.client_closed);
  EXPECT_GT(inspector->frames_seen(), 3u);
  ASSERT_NE(harness.client_conn, nullptr);
  EXPECT_TRUE(harness.client_conn->origin_set().received_origin_frame());
}

TEST(Middleboxes, StrictAgentTearsDownOnOriginFrame) {
  // Reproduces §6.7: the ORIGIN frame is unknown to the agent, and instead
  // of ignoring it, the agent kills the connection.
  auto agent = std::make_shared<StrictFrameMiddlebox>();
  H2OverNet harness;
  harness.start(agent);
  harness.sim.run_until_idle();
  EXPECT_TRUE(harness.client_closed);
  EXPECT_EQ(agent->teardowns(), 1u);
  EXPECT_EQ(harness.net.stats().middlebox_teardowns, 1u);
}

TEST(Middleboxes, StrictAgentForwardsAfterFix) {
  // The vendor ships the fix (§6.7 epilogue): the agent now knows ORIGIN.
  auto agent = std::make_shared<StrictFrameMiddlebox>();
  agent->add_known_type(0x0c);  // ORIGIN
  agent->add_known_type(0x0a);  // ALTSVC
  H2OverNet harness;
  harness.start(agent);
  harness.sim.run_until_idle();
  EXPECT_FALSE(harness.client_closed);
  EXPECT_EQ(agent->teardowns(), 0u);
  ASSERT_NE(harness.client_conn, nullptr);
  EXPECT_TRUE(harness.client_conn->origin_set().received_origin_frame());
}

TEST(Middleboxes, TeardownOnTypeKillsOnlyListedTypes) {
  // teardown-on-ORIGIN: tolerates arbitrary unknown frames, hates 0x0c.
  auto agent = std::make_shared<TeardownOnTypeMiddlebox>(
      std::set<std::uint8_t>{0x0c});
  H2OverNet harness;
  harness.start(agent);
  harness.sim.run_until_idle();
  EXPECT_TRUE(harness.client_closed);
  EXPECT_EQ(agent->teardowns(), 1u);
  EXPECT_EQ(harness.net.stats().middlebox_teardowns, 1u);
}

TEST(Middleboxes, TeardownOnTypeForwardsUnlistedTypes) {
  // The same device configured against ALTSVC only: ORIGIN sails through
  // even though it is just as unknown to the agent.
  auto agent = std::make_shared<TeardownOnTypeMiddlebox>(
      std::set<std::uint8_t>{0x0a});
  H2OverNet harness;
  harness.start(agent);
  harness.sim.run_until_idle();
  EXPECT_FALSE(harness.client_closed);
  EXPECT_EQ(agent->teardowns(), 0u);
  ASSERT_NE(harness.client_conn, nullptr);
  EXPECT_TRUE(harness.client_conn->origin_set().received_origin_frame());
}

TEST(Middleboxes, FrameReorderingDamagesWithoutTearingDown) {
  auto lb = std::make_shared<FrameReorderingMiddlebox>();
  H2OverNet harness;
  harness.start(lb);
  harness.sim.run_until_idle();
  // The LB swapped frames somewhere but never killed the connection
  // itself; any damage surfaces as a protocol error at an endpoint.
  EXPECT_GE(lb->reorders(), 1u);
  EXPECT_EQ(harness.net.stats().middlebox_teardowns, 0u);
}

TEST(Middleboxes, AuthorityPinningAllowsSameAuthorityReuse) {
  auto proxy = std::make_shared<AuthorityPinningMiddlebox>();
  H2OverNet harness;
  harness.start(proxy);
  harness.sim.run_until_idle();
  ASSERT_NE(harness.client_conn, nullptr);
  (void)harness.client_conn->submit_request({{":method", "GET"},
                                             {":scheme", "https"},
                                             {":authority", "www.example.com"},
                                             {":path", "/second"}},
                                            true);
  harness.client_end->send(harness.client_conn->take_output());
  harness.sim.run_until_idle();
  EXPECT_FALSE(harness.client_closed);
  EXPECT_EQ(proxy->teardowns(), 0u);
}

TEST(Middleboxes, AuthorityPinningTearsDownCrossAuthorityRequest) {
  // A coalesced request is exactly what anti-fronting DPI flags: same
  // connection, different :authority.
  auto proxy = std::make_shared<AuthorityPinningMiddlebox>();
  H2OverNet harness;
  harness.start(proxy);
  harness.sim.run_until_idle();
  ASSERT_NE(harness.client_conn, nullptr);
  EXPECT_FALSE(harness.client_closed);
  (void)harness.client_conn->submit_request({{":method", "GET"},
                                             {":scheme", "https"},
                                             {":authority", "static.example.com"},
                                             {":path", "/app.js"}},
                                            true);
  harness.client_end->send(harness.client_conn->take_output());
  harness.sim.run_until_idle();
  EXPECT_TRUE(harness.client_closed);
  EXPECT_EQ(proxy->teardowns(), 1u);
}

// --- Avoid-list degradation against authority-pinning DPI ---

// Full wire-client load through the pinning proxy. The resource chain
// forces two coalescing opportunities across the same host pair:
//   r0 www /            -> first connection, pinned to www
//   r1 static /app.js   -> coalesces onto r0's connection: teardown #1
//   r2 www /logo.png    -> www connection is gone; the pool offers the
//                          static retry connection. With the avoid-list the
//                          pair is banned and r2 gets a dedicated
//                          connection; without it, teardown #2.
//   r3 static /style.css-> same-host reuse either way.
browser::WireLoadResult run_pinned_load(
    bool use_avoid_list, std::shared_ptr<AuthorityPinningMiddlebox> proxy) {
  Simulator sim;
  Network net(sim);
  browser::Environment env;
  auto cert = *env.default_ca().issue(
      "www.site.com", {"www.site.com", "static.site.com"},
      SimTime::from_micros(0));
  browser::Service service;
  service.name = "cdn";
  service.asn = 13335;
  service.provider = "ExampleCDN";
  service.addresses = {IpAddress::v4(0x0A000001)};
  service.served_hostnames = {"www.site.com", "static.site.com"};
  service.certificate = std::make_shared<tls::Certificate>(cert);
  env.add_service(std::move(service));

  server::ServerConfig config;
  config.origin_set = {"https://www.site.com", "https://static.site.com"};
  server::Http2Server server(config);
  server.set_certificate(cert);
  auto handler = [](std::string_view) {
    server::Response response;
    response.body = origin::util::from_string("ok");
    return response;
  };
  server.add_vhost("www.site.com", handler);
  server.add_vhost("static.site.com", handler);
  server.listen(net, IpAddress::v4(0x0A000001));

  net.install_middlebox("wire-client", proxy);

  web::Webpage page;
  page.tranco_rank = 7;
  page.base_hostname = "www.site.com";
  const char* hosts[] = {"www.site.com", "static.site.com", "www.site.com",
                         "static.site.com"};
  const char* paths[] = {"/", "/app.js", "/logo.png", "/style.css"};
  for (int i = 0; i < 4; ++i) {
    web::Resource resource;
    resource.hostname = hosts[i];
    resource.path = paths[i];
    if (i == 0) {
      resource.mode = web::RequestMode::kNavigation;
    } else {
      resource.parent = i - 1;
      resource.discovery_cpu_ms = 1.0;
    }
    page.resources.push_back(resource);
  }

  browser::LoaderOptions options;
  options.policy = "origin-frame";
  browser::DegradationOptions degradation;
  degradation.enabled = true;
  degradation.use_avoid_list = use_avoid_list;
  browser::WireClient client(env, net, options, degradation);
  browser::WireLoadResult result;
  bool done = false;
  client.load(page, [&](browser::WireLoadResult r) {
    result = std::move(r);
    done = true;
  });
  sim.run_until_idle();
  EXPECT_TRUE(done);
  return result;
}

TEST(Middleboxes, AvoidListPreventsRepeatTeardownOnSameHostPair) {
  auto guarded_proxy = std::make_shared<AuthorityPinningMiddlebox>();
  auto guarded = run_pinned_load(/*use_avoid_list=*/true, guarded_proxy);
  EXPECT_TRUE(guarded.complete);
  EXPECT_TRUE(guarded.har.success)
      << (guarded.errors.empty() ? "(no errors)" : guarded.errors.front());
  // Exactly one teardown: the pair lands on the avoid-list and every later
  // cross-host opportunity is routed to a dedicated connection.
  EXPECT_EQ(guarded_proxy->teardowns(), 1u);
  EXPECT_GE(guarded.robustness.avoid_list_entries, 1u);
  EXPECT_GE(guarded.robustness.avoided_coalescings, 1u);
  EXPECT_GE(guarded.robustness.redispatched_streams, 1u);

  auto naive_proxy = std::make_shared<AuthorityPinningMiddlebox>();
  auto naive = run_pinned_load(/*use_avoid_list=*/false, naive_proxy);
  EXPECT_TRUE(naive.complete);
  // Without the avoid-list the client keeps walking into the proxy.
  EXPECT_GE(naive_proxy->teardowns(), 2u);
}

}  // namespace
}  // namespace origin::netsim
