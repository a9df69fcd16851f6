// Server-side overload protection: abuse defenses, deadline-driven session
// reaping, admission control, and GOAWAY-based graceful drain. Every
// defense is exercised by the seeded abusive-client generator built for it
// (h2/abuse.h), so each shed decision is reproducible bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "browser/wire_client.h"
#include "cdn/admission.h"
#include "h2/abuse.h"
#include "h2/frame.h"
#include "hpack/hpack.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/thread_pool.h"

namespace origin {
namespace {

using browser::DegradationOptions;
using browser::Environment;
using browser::LoaderOptions;
using browser::Service;
using browser::WireClient;
using browser::WireLoadResult;
using dns::IpAddress;
using origin::util::Duration;
using origin::util::SimTime;

// --- AbuseMix parsing ------------------------------------------------------

TEST(Overload, AbuseMixParsesSerializesAndExpands) {
  auto mix = h2::AbuseMix::parse("rapid_reset=2, ping_flood=1,slowloris=3,");
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(mix->rapid_reset, 2u);
  EXPECT_EQ(mix->ping_flood, 1u);
  EXPECT_EQ(mix->slowloris, 3u);
  EXPECT_EQ(mix->total(), 6u);
  auto kinds = mix->expand();
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds.front(), h2::AbuseKind::kRapidReset);
  EXPECT_EQ(kinds.back(), h2::AbuseKind::kSlowloris);
  // Canonical form round-trips.
  auto again = h2::AbuseMix::parse(mix->serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->serialize(), mix->serialize());
}

TEST(Overload, AbuseMixRejectsMalformedEntries) {
  EXPECT_FALSE(h2::AbuseMix::parse("rapid_reset").ok());
  EXPECT_FALSE(h2::AbuseMix::parse("rapid_reset=abc").ok());
  EXPECT_FALSE(h2::AbuseMix::parse("rapid_reset=3x").ok());
  EXPECT_FALSE(h2::AbuseMix::parse("teapot_flood=2").ok());
}

// --- Per-kind shed tests ---------------------------------------------------

// Bare serving world for raw abusive clients: no TLS machinery needed, the
// generators speak h2 frames straight onto the simulated transport.
struct AbuseWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  server::Http2Server server;
  dns::IpAddress addr = dns::IpAddress::v4(0x0A000001);

  explicit AbuseWorld(server::OverloadConfig overload,
                      h2::Settings settings = {}) {
    server::ServerConfig config;
    config.overload = overload;
    config.settings = settings;
    server = server::Http2Server(config);
    server.add_vhost("www.site.com", [](std::string_view) {
      server::Response response;
      response.body = origin::util::from_string("<html>ok</html>");
      return response;
    });
    server.listen(net, addr);
  }

  std::uint64_t close_reason_count(const std::string& reason) const {
    auto it = server.stats().close_reasons.find(reason);
    return it == server.stats().close_reasons.end() ? 0 : it->second;
  }
};

server::OverloadConfig tight_budgets() {
  server::OverloadConfig overload;
  overload.enabled = true;
  overload.max_session_rsts = 16;
  overload.max_session_pings = 16;
  overload.max_session_settings = 8;
  overload.max_session_header_bytes = 16 * 1024;
  return overload;
}

TEST(Overload, RapidResetFloodShedWithDistinctReason) {
  AbuseWorld world(tight_budgets());
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kRapidReset, 1);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.connected());
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: rapid-reset flood");
  EXPECT_EQ(world.server.stats().sessions_shed, 1u);
  EXPECT_EQ(world.close_reason_count("overload: rapid-reset flood"), 1u);
  EXPECT_EQ(world.server.live_sessions(), 0u);
}

TEST(Overload, PingFloodShedWithDistinctReason) {
  AbuseWorld world(tight_budgets());
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kPingFlood, 2);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: ping flood");
  EXPECT_EQ(world.close_reason_count("overload: ping flood"), 1u);
}

TEST(Overload, SettingsFloodShedWithDistinctReason) {
  AbuseWorld world(tight_budgets());
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kSettingsFlood, 3);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: settings flood");
  EXPECT_EQ(world.close_reason_count("overload: settings flood"), 1u);
}

TEST(Overload, HeaderBombShedByHeaderBudget) {
  AbuseWorld world(tight_budgets());
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kHeaderBomb, 4);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: header budget");
  EXPECT_EQ(world.close_reason_count("overload: header budget"), 1u);
}

TEST(Overload, HeaderBombRejectedByHeaderListSizeSetting) {
  // The h2-level defense (SETTINGS_MAX_HEADER_LIST_SIZE, RFC 9113
  // §10.5.1) works even with the overload layer off: the oversized block
  // is a connection error before any request dispatch.
  h2::Settings settings;
  settings.max_header_list_size = 16 * 1024;
  AbuseWorld world(server::OverloadConfig{}, settings);
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kHeaderBomb, 5);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.closed());
  EXPECT_FALSE(attacker.shed());  // protocol error, not an overload shed
  EXPECT_NE(attacker.close_reason().find("h2 protocol error"),
            std::string::npos);
  EXPECT_EQ(world.server.stats().h2_protocol_errors, 1u);
}

TEST(Overload, SlowlorisReapedOnStallDeadline) {
  // The dedicated stall-timeout test: before the deadline-driven sweep,
  // reaping was only incidental on close, so a stalled session survived
  // forever.
  server::OverloadConfig overload;
  overload.enabled = true;
  overload.stall_timeout = Duration::seconds(5);
  overload.sweep_interval = Duration::seconds(1);
  AbuseWorld world(overload);
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kSlowloris, 6);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: stall timeout");
  EXPECT_EQ(world.server.stats().sessions_reaped_stalled, 1u);
  EXPECT_EQ(world.server.stats().sessions_shed, 1u);
  EXPECT_EQ(world.server.live_sessions(), 0u);
  // The last trickle byte lands shortly after 10s; the sweep must notice
  // within stall_timeout + one sweep interval (plus delivery latency).
  EXPECT_LE(world.sim.now().as_seconds(), 18.0);
}

TEST(Overload, FrameRateBudgetShedsFastSender) {
  server::OverloadConfig overload;
  overload.enabled = true;
  // Only the lifetime frame-rate budget is armed.
  overload.max_session_rsts = 0;
  overload.max_session_pings = 0;
  overload.max_session_settings = 0;
  overload.max_session_header_bytes = 0;
  overload.max_session_response_bytes = 0;
  overload.max_session_streams = 0;
  overload.frame_budget_grace = 64;
  overload.max_frames_per_second = 100.0;
  AbuseWorld world(overload);
  h2::AbusiveClientOptions options;
  options.frames_per_burst = 128;
  options.burst_interval = Duration::millis(1);
  h2::AbusiveClient attacker(world.net, h2::AbuseKind::kPingFlood, 7, options);
  attacker.start(world.addr);
  world.sim.run_until_idle();
  EXPECT_TRUE(attacker.shed());
  EXPECT_EQ(attacker.close_reason(), "overload: frame rate");
  EXPECT_EQ(world.close_reason_count("overload: frame rate"), 1u);
}

// --- Well-behaved traffic under armed defenses -----------------------------

// Full wire world (client TLS validation, ORIGIN frames) with the overload
// layer armed on the CDN server.
struct OverloadWireWorld {
  netsim::Simulator sim;
  netsim::Network net{sim};
  Environment env;
  server::Http2Server cdn_server;
  dns::IpAddress addr = IpAddress::v4(0x0A000001);

  explicit OverloadWireWorld(server::OverloadConfig overload,
                             std::size_t extra_resources = 0)
      : extra_resources_(extra_resources) {
    std::vector<std::string> hosts = {"www.site.com", "static.site.com"};
    auto cert = *env.default_ca().issue(
        "www.site.com", {"www.site.com", "static.site.com"},
        SimTime::from_micros(0));
    Service cdn_service;
    cdn_service.name = "cdn";
    cdn_service.asn = 13335;
    cdn_service.provider = "ExampleCDN";
    cdn_service.addresses = {addr};
    cdn_service.served_hostnames = {hosts.begin(), hosts.end()};
    cdn_service.certificate = std::make_shared<tls::Certificate>(cert);
    env.add_service(std::move(cdn_service));

    server::ServerConfig config;
    config.origin_set = {"https://www.site.com", "https://static.site.com"};
    config.overload = overload;
    cdn_server = server::Http2Server(config);
    cdn_server.set_certificate(cert);
    cdn_server.add_vhost("www.site.com", body("<html>base</html>"));
    cdn_server.add_vhost("static.site.com", body("body{}"));
    cdn_server.listen(net, addr);
  }

  static server::Handler body(std::string text) {
    return [text = std::move(text)](std::string_view) {
      server::Response response;
      response.body = origin::util::from_string(text);
      return response;
    };
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
    for (std::size_t i = 0; i < 2 + extra_resources_; ++i) {
      web::Resource sub;
      sub.hostname = "static.site.com";
      sub.path = "/asset" + std::to_string(i) + ".css";
      sub.parent = 0;
      sub.discovery_cpu_ms = 1.0;
      page.resources.push_back(sub);
    }
    return page;
  }

  // Starts a load; the caller runs the simulator.
  void start_load(WireLoadResult* result, bool* done,
                  DegradationOptions degradation = {}) {
    LoaderOptions options;
    options.policy = "origin-frame";
    client_ = std::make_unique<WireClient>(env, net, options, degradation);
    client_->load(page(), [result, done](WireLoadResult r) {
      *result = std::move(r);
      *done = true;
    });
  }

  std::uint64_t close_reason_count(const std::string& reason) const {
    auto it = cdn_server.stats().close_reasons.find(reason);
    return it == cdn_server.stats().close_reasons.end() ? 0 : it->second;
  }

 private:
  std::size_t extra_resources_ = 0;
  std::unique_ptr<WireClient> client_;
};

TEST(Overload, WellBehavedLoadUnaffectedByArmedDefenses) {
  server::OverloadConfig overload;
  overload.enabled = true;  // default budgets
  OverloadWireWorld world(overload);
  WireLoadResult result;
  bool done = false;
  world.start_load(&result, &done);
  world.sim.run_until_idle();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(world.cdn_server.stats().sessions_shed, 0u);
  EXPECT_TRUE(world.cdn_server.stats().close_reasons.empty());
}

TEST(Overload, EnvAbuseMatrixShedsEveryAttackerAndServesTheRest) {
  // scripts/check.sh sweeps ORIGIN_ABUSE_MIX: under any mix, every abusive
  // session must be shed with the reason built for its kind while a
  // well-behaved page load on the same server completes untouched.
  std::string mix_text =
      "rapid_reset=2,header_bomb=1,ping_flood=2,settings_flood=1,slowloris=2";
  if (const char* env_mix = std::getenv("ORIGIN_ABUSE_MIX")) {
    mix_text = env_mix;
  }
  auto mix = h2::AbuseMix::parse(mix_text);
  ASSERT_TRUE(mix.ok()) << mix.error().message;

  server::OverloadConfig overload;
  overload.enabled = true;
  OverloadWireWorld world(overload);
  std::vector<std::unique_ptr<h2::AbusiveClient>> attackers;
  std::uint64_t seed = 0xAB05E;
  for (h2::AbuseKind kind : mix->expand()) {
    attackers.push_back(
        std::make_unique<h2::AbusiveClient>(world.net, kind, seed++));
    attackers.back()->start(world.addr);
  }
  WireLoadResult result;
  bool done = false;
  world.start_load(&result, &done);
  world.sim.run_until_idle();

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty());
  for (const auto& attacker : attackers) {
    EXPECT_TRUE(attacker->shed())
        << h2::abuse_kind_name(attacker->kind()) << " closed with \""
        << attacker->close_reason() << "\"";
    EXPECT_NE(attacker->close_reason().find("overload:"), std::string::npos);
  }
  EXPECT_EQ(world.cdn_server.stats().sessions_shed, attackers.size());
}

// --- Admission control -----------------------------------------------------

TEST(Admission, CapacityAndPerTagCaps) {
  cdn::AdmissionOptions options;
  options.max_sessions = 2;
  options.max_sessions_per_tag = 1;
  cdn::AdmissionController admission(options);

  EXPECT_FALSE(admission.admit("a").has_value());
  auto per_tag = admission.admit("a");
  ASSERT_TRUE(per_tag.has_value());
  EXPECT_EQ(*per_tag, "admission: tag concurrency limit");
  EXPECT_FALSE(admission.admit("b").has_value());
  auto capacity = admission.admit("c");
  ASSERT_TRUE(capacity.has_value());
  EXPECT_EQ(*capacity, "admission: at capacity");

  // Releasing a slot re-opens the PoP.
  admission.record_close("a", "load complete");
  EXPECT_FALSE(admission.admit("c").has_value());
  EXPECT_EQ(admission.admitted(), 3u);
  EXPECT_EQ(admission.rejected(), 2u);
}

TEST(Admission, GreylistsAbusiveTagAndProbeRecovers) {
  cdn::AdmissionOptions options;
  options.window = 8;
  options.min_observations = 2;
  options.abusive_threshold = 1.0;
  options.probe_after = 2;
  cdn::AdmissionController admission(options);

  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(admission.admit("attacker").has_value());
    admission.record_close("attacker", "overload: ping flood");
  }
  EXPECT_TRUE(admission.greylisted("attacker"));
  EXPECT_EQ(admission.greylists(), 1u);

  // First attempt refused, second admitted as a probe.
  auto refused = admission.admit("attacker");
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, "admission: greylisted");
  EXPECT_FALSE(admission.admit("attacker").has_value());
  EXPECT_EQ(admission.probes(), 1u);

  // Clean probe close clears the tag.
  admission.record_close("attacker", "load complete");
  EXPECT_FALSE(admission.greylisted("attacker"));
  EXPECT_EQ(admission.ungreylists(), 1u);
  EXPECT_FALSE(admission.admit("attacker").has_value());

  // Other tags were never affected.
  EXPECT_FALSE(admission.greylisted("bystander"));
}

TEST(Admission, AbusiveProbeStaysGreylisted) {
  cdn::AdmissionOptions options;
  options.min_observations = 1;
  options.abusive_threshold = 1.0;
  options.probe_after = 1;
  cdn::AdmissionController admission(options);
  ASSERT_FALSE(admission.admit("attacker").has_value());
  admission.record_close("attacker", "overload: rapid-reset flood");
  EXPECT_TRUE(admission.greylisted("attacker"));
  // Probe admitted, sheds again: still dark.
  EXPECT_FALSE(admission.admit("attacker").has_value());
  admission.record_close("attacker", "overload: rapid-reset flood");
  EXPECT_TRUE(admission.greylisted("attacker"));
  EXPECT_EQ(admission.ungreylists(), 0u);
}

TEST(Admission, DrainRefusesEverything) {
  cdn::AdmissionController admission;
  EXPECT_FALSE(admission.admit("a").has_value());
  admission.begin_drain();
  auto refused = admission.admit("b");
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(*refused, "admission: draining");
}

TEST(Admission, AtCapacityShedsExcessConnectionsOnTheWire) {
  server::OverloadConfig overload;
  overload.enabled = true;
  overload.max_session_pings = 16;
  AbuseWorld world(overload);
  cdn::AdmissionOptions options;
  options.max_sessions = 1;
  cdn::AdmissionController admission(options);
  world.server.set_admission_gate(
      [&admission](const std::string& tag) { return admission.admit(tag); });
  world.server.set_admission_feedback(
      [&admission](const std::string& tag, const std::string& reason) {
        admission.record_close(tag, reason);
      });

  h2::AbusiveClient first(world.net, h2::AbuseKind::kPingFlood, 10);
  h2::AbusiveClient second(world.net, h2::AbuseKind::kPingFlood, 11);
  first.start(world.addr);
  second.start(world.addr);
  world.sim.run_until_idle();

  EXPECT_TRUE(first.shed());
  EXPECT_EQ(first.close_reason(), "overload: ping flood");
  EXPECT_TRUE(second.shed());
  EXPECT_EQ(second.close_reason(), "admission: at capacity");
  EXPECT_EQ(world.server.stats().admission_rejections, 1u);
  // The shed session released its slot back to the controller.
  EXPECT_EQ(admission.active_sessions(), 0u);
  // The abusive close entered the tag's greylist window.
  EXPECT_EQ(world.close_reason_count("admission: at capacity"), 1u);
}

// --- GOAWAY graceful drain -------------------------------------------------

// Arms a one-shot trigger that calls begin_drain as soon as the server has
// handled `after_requests` requests, polling on a fixed 1ms cadence so the
// drain lands mid-load at a deterministic simulated time.
void arm_drain_trigger(netsim::Simulator& sim, server::Http2Server& server,
                       std::uint64_t after_requests) {
  auto poll = std::make_shared<std::function<void(int)>>();
  // The stored function must not hold a strong ref to itself (that cycle
  // never frees); each scheduled tick carries the strong ref instead.
  std::weak_ptr<std::function<void(int)>> weak = poll;
  *poll = [&sim, &server, after_requests, weak](int rounds) {
    if (server.stats().requests >= after_requests) {
      server.begin_drain("maintenance drain");
      return;
    }
    if (rounds > 10000) return;  // give up; the load failed anyway
    sim.schedule(Duration::millis(1), [next = weak.lock(), rounds]() {
      if (next) (*next)(rounds + 1);
    });
  };
  sim.schedule(Duration::millis(1), [poll]() { (*poll)(0); });
}

TEST(OverloadDrain, GracefulDrainCompletesPageViaRedispatch) {
  server::OverloadConfig overload;
  overload.enabled = true;
  OverloadWireWorld world(overload, /*extra_resources=*/4);
  WireLoadResult result;
  bool done = false;
  world.start_load(&result, &done);
  arm_drain_trigger(world.sim, world.cdn_server, 1);
  world.sim.run_until_idle();

  ASSERT_TRUE(done);
  // 100% completion: streams the drained server never processed were
  // re-dispatched budget-free onto a fresh connection.
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_TRUE(result.har.success);
  EXPECT_EQ(world.cdn_server.stats().drains_started, 1u);
  EXPECT_GE(result.robustness.goaways_received, 1u);
  EXPECT_GE(world.close_reason_count("drain: complete"), 1u);
  // The drained connection is gone; only post-drain connections survive.
  EXPECT_EQ(world.close_reason_count("drain: grace expired"), 0u);
}

TEST(OverloadDrain, LateStreamsRefusedAndLaggardsClosedAtGraceDeadline) {
  server::OverloadConfig overload;
  overload.enabled = true;
  overload.drain_grace = Duration::millis(100);
  AbuseWorld world(overload);

  // A hand-rolled laggard: opens stream 1 without END_STREAM (so the
  // session always has one active stream), then races stream 3 past the
  // drain GOAWAY.
  hpack::Encoder encoder;
  netsim::TcpEndpoint laggard;
  std::string laggard_close;
  world.net.connect(
      "laggard", world.addr,
      [&](origin::util::Result<netsim::TcpEndpoint> endpoint) {
        ASSERT_TRUE(endpoint.ok());
        laggard = *endpoint;
        laggard.set_on_close(
            [&](const std::string& reason) { laggard_close = reason; });
        origin::util::Bytes wire;
        wire.insert(wire.end(), h2::kClientPreface.begin(),
                    h2::kClientPreface.end());
        auto frame = h2::serialize_frame(h2::Frame{h2::SettingsFrame{}});
        wire.insert(wire.end(), frame.begin(), frame.end());
        h2::HeadersFrame headers;
        headers.stream_id = 1;
        headers.end_stream = false;  // the stream never finishes
        headers.header_block =
            encoder.encode(server::make_get_request("www.site.com", "/slow"));
        frame = h2::serialize_frame(h2::Frame{std::move(headers)});
        wire.insert(wire.end(), frame.begin(), frame.end());
        laggard.send(std::move(wire));
      });
  world.sim.run_until(SimTime::from_micros(50'000));
  ASSERT_EQ(world.server.live_sessions(), 1u);

  world.server.begin_drain("maintenance drain");
  // Stream 3 arrives after the GOAWAY pinned last_stream_id at 1.
  h2::HeadersFrame late;
  late.stream_id = 3;
  late.end_stream = true;
  late.header_block =
      encoder.encode(server::make_get_request("www.site.com", "/late"));
  laggard.send(h2::serialize_frame(h2::Frame{std::move(late)}));
  world.sim.run_until_idle();

  EXPECT_EQ(world.server.stats().streams_refused, 1u);
  EXPECT_EQ(world.close_reason_count("drain: grace expired"), 1u);
  EXPECT_EQ(laggard_close, "drain: grace expired");
  EXPECT_EQ(world.server.live_sessions(), 0u);
}

// --- Determinism across thread counts --------------------------------------

// K independent drain worlds (varying page sizes) executed across the
// pool; the concatenated client+server ledgers must be byte-identical at
// any thread count — the PR 2 determinism contract extended to every
// overload counter and close reason.
std::string run_drain_batch(std::size_t threads) {
  constexpr std::size_t kWorlds = 8;
  std::vector<std::string> serialized(kWorlds);
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(kWorlds, [&](std::size_t i) {
    server::OverloadConfig overload;
    overload.enabled = true;
    OverloadWireWorld world(overload, /*extra_resources=*/i % 3);
    WireLoadResult result;
    bool done = false;
    world.start_load(&result, &done);
    arm_drain_trigger(world.sim, world.cdn_server, 1 + i % 2);
    world.sim.run_until_idle();
    serialized[i] = (done && result.complete ? "complete\n" : "incomplete\n");
    serialized[i] += result.robustness.serialize();
    serialized[i] += world.cdn_server.stats().serialize();
  });
  std::string all;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    all += "# world " + std::to_string(i) + "\n" + serialized[i];
  }
  return all;
}

TEST(OverloadDrain, LedgersBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_drain_batch(1);
  const std::string parallel = run_drain_batch(8);
  EXPECT_EQ(serial, parallel);
  // Every world completed and actually drained.
  EXPECT_EQ(serial.find("incomplete"), std::string::npos);
  EXPECT_NE(serial.find("drains_started=1"), std::string::npos);
}

// The abuse matrix is deterministic too: the same mix against the same
// budgets yields byte-identical server ledgers at any thread count.
std::string run_abuse_batch(std::size_t threads) {
  constexpr std::size_t kWorlds = 8;
  const std::array<h2::AbuseKind, 4> kKinds = {
      h2::AbuseKind::kRapidReset, h2::AbuseKind::kHeaderBomb,
      h2::AbuseKind::kPingFlood, h2::AbuseKind::kSettingsFlood};
  std::vector<std::string> serialized(kWorlds);
  origin::util::ThreadPool pool(threads);
  pool.parallel_for_index(kWorlds, [&](std::size_t i) {
    AbuseWorld world(tight_budgets());
    h2::AbusiveClient attacker(world.net, kKinds[i % kKinds.size()],
                               0x5EED + i);
    attacker.start(world.addr);
    world.sim.run_until_idle();
    serialized[i] = world.server.stats().serialize();
  });
  std::string all;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    all += "# world " + std::to_string(i) + "\n" + serialized[i];
  }
  return all;
}

TEST(OverloadDeterminism, AbuseLedgersBitIdenticalAcrossThreadCounts) {
  const std::string serial = run_abuse_batch(1);
  const std::string parallel = run_abuse_batch(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("sessions_shed=1"), std::string::npos);
}

}  // namespace
}  // namespace origin
