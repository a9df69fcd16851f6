#include <gtest/gtest.h>

#include "h2/connection.h"
#include "h2/flow_control.h"
#include "h2/origin_set.h"
#include "h2/stream.h"

namespace origin::h2 {
namespace {

using origin::util::Bytes;

Origin make_origin(const std::string& host) {
  Origin o;
  o.host = host;
  return o;
}

// Shuttles bytes between two in-memory connections until both are idle.
void pump(Connection& a, Connection& b) {
  for (int i = 0; i < 32; ++i) {
    bool moved = false;
    if (a.has_output()) {
      Bytes bytes = a.take_output();
      ASSERT_TRUE(b.receive(bytes).ok());
      moved = true;
    }
    if (b.has_output()) {
      Bytes bytes = b.take_output();
      ASSERT_TRUE(a.receive(bytes).ok());
      moved = true;
    }
    if (!moved) return;
  }
  FAIL() << "connections did not quiesce";
}

struct Pair {
  Connection client{Connection::Role::kClient, make_origin("www.example.com")};
  Connection server{Connection::Role::kServer, make_origin("www.example.com")};
};

hpack::HeaderList get_request(const std::string& authority,
                              const std::string& path = "/") {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", authority},
          {":path", path}};
}

TEST(H2Connection, HandshakeExchangesSettings) {
  Pair p;
  bool client_saw_settings = false, server_saw_settings = false;
  ConnectionCallbacks ccb;
  ccb.on_remote_settings = [&](const SettingsFrame&) { client_saw_settings = true; };
  p.client.set_callbacks(std::move(ccb));
  ConnectionCallbacks scb;
  scb.on_remote_settings = [&](const SettingsFrame&) { server_saw_settings = true; };
  p.server.set_callbacks(std::move(scb));
  pump(p.client, p.server);
  EXPECT_TRUE(client_saw_settings);
  EXPECT_TRUE(server_saw_settings);
}

TEST(H2Connection, BadPrefaceIsConnectionError) {
  Connection server(Connection::Role::kServer, make_origin("x.com"));
  Bytes garbage = origin::util::from_string("GET / HTTP/1.1\r\n");
  EXPECT_FALSE(server.receive(garbage).ok());
  EXPECT_TRUE(server.failed());
}

TEST(H2Connection, RequestResponseRoundTrip) {
  Pair p;
  hpack::HeaderList server_got;
  std::uint32_t server_stream = 0;
  ConnectionCallbacks scb;
  scb.on_headers = [&](std::uint32_t id, const hpack::HeaderList& h, bool) {
    server_stream = id;
    server_got = h;
  };
  p.server.set_callbacks(std::move(scb));

  hpack::HeaderList client_got;
  std::string body;
  ConnectionCallbacks ccb;
  ccb.on_headers = [&](std::uint32_t, const hpack::HeaderList& h, bool) {
    client_got = h;
  };
  ccb.on_data = [&](std::uint32_t, std::span<const std::uint8_t> d, bool) {
    body.append(d.begin(), d.end());
  };
  p.client.set_callbacks(std::move(ccb));

  auto stream_id = p.client.submit_request(get_request("www.example.com"), true);
  ASSERT_TRUE(stream_id.ok());
  EXPECT_EQ(*stream_id, 1u);
  pump(p.client, p.server);
  ASSERT_EQ(server_got.size(), 4u);
  EXPECT_EQ(server_got[2].value, "www.example.com");

  ASSERT_TRUE(p.server
                  .submit_response(server_stream,
                                   {{":status", "200"},
                                    {"content-type", "text/html"}},
                                   false)
                  .ok());
  auto payload = origin::util::from_string("<html>ok</html>");
  ASSERT_TRUE(p.server.submit_data(server_stream, payload, true).ok());
  pump(p.client, p.server);
  EXPECT_EQ(client_got[0].value, "200");
  EXPECT_EQ(body, "<html>ok</html>");
  // Both stream halves closed.
  EXPECT_TRUE(p.client.find_stream(1)->closed());
  EXPECT_TRUE(p.server.find_stream(1)->closed());
}

TEST(H2Connection, StreamIdsIncreaseByTwo) {
  Pair p;
  pump(p.client, p.server);
  EXPECT_EQ(*p.client.submit_request(get_request("a.com"), true), 1u);
  EXPECT_EQ(*p.client.submit_request(get_request("a.com"), true), 3u);
  EXPECT_EQ(*p.client.submit_request(get_request("a.com"), true), 5u);
}

TEST(H2Connection, OriginFrameUpdatesClientOriginSet) {
  Pair p;
  pump(p.client, p.server);
  std::vector<Origin> seen;
  ConnectionCallbacks ccb;
  ccb.on_origin_set_changed = [&](const OriginSet& set) {
    seen = set.members();
  };
  p.client.set_callbacks(std::move(ccb));

  ASSERT_TRUE(p.server
                  .submit_origin({"https://www.example.com",
                                  "https://static.example.com",
                                  "https://img.example.com"})
                  .ok());
  pump(p.client, p.server);
  EXPECT_TRUE(p.client.origin_set().received_origin_frame());
  EXPECT_FALSE(p.client.origin_set().requires_dns_validation());
  EXPECT_TRUE(p.client.origin_set().contains("static.example.com"));
  EXPECT_TRUE(p.client.origin_set().contains("img.example.com"));
  EXPECT_FALSE(p.client.origin_set().contains("evil.example.net"));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(H2Connection, SecondOriginFrameReplacesSet) {
  Pair p;
  pump(p.client, p.server);
  ASSERT_TRUE(p.server.submit_origin({"https://a.example", "https://b.example"}).ok());
  pump(p.client, p.server);
  ASSERT_TRUE(p.server.submit_origin({"https://c.example"}).ok());
  pump(p.client, p.server);
  const OriginSet& set = p.client.origin_set();
  EXPECT_FALSE(set.contains("a.example"));
  EXPECT_FALSE(set.contains("b.example"));
  EXPECT_TRUE(set.contains("c.example"));
  // Initial origin always remains.
  EXPECT_TRUE(set.contains("www.example.com"));
}

TEST(H2Connection, InvalidOriginEntriesIgnoredIndividually) {
  Pair p;
  pump(p.client, p.server);
  ASSERT_TRUE(p.server
                  .submit_origin({"https://good.example", "not a uri",
                                  "ftp://bad.scheme", "https://also-good.example"})
                  .ok());
  pump(p.client, p.server);
  EXPECT_TRUE(p.client.origin_set().contains("good.example"));
  EXPECT_TRUE(p.client.origin_set().contains("also-good.example"));
  EXPECT_EQ(p.client.origin_set().size(), 3u);  // initial + 2 valid
}

TEST(H2Connection, ClientCannotSendOrigin) {
  Pair p;
  EXPECT_FALSE(p.client.submit_origin({"https://x.example"}).ok());
}

TEST(H2Connection, ServerIgnoresOriginFrame) {
  // RFC 8336: ORIGIN received by a server is ignored, not an error.
  Pair p;
  pump(p.client, p.server);
  OriginFrame f;
  f.origins = {"https://sneaky.example"};
  Bytes wire = serialize_frame(Frame{f});
  EXPECT_TRUE(p.server.receive(wire).ok());
  EXPECT_FALSE(p.server.failed());
}

TEST(H2Connection, UnknownFrameIgnoredFailOpen) {
  // RFC 9113 §4.1 — exactly the behaviour the §6.7 middlebox violated.
  Pair p;
  pump(p.client, p.server);
  int unknown_seen = 0;
  ConnectionCallbacks ccb;
  ccb.on_unknown_frame = [&](const UnknownFrame&) { unknown_seen++; };
  p.client.set_callbacks(std::move(ccb));
  UnknownFrame f;
  f.type = 0xee;
  f.payload = origin::util::from_string("mystery");
  ASSERT_TRUE(p.client.receive(serialize_frame(Frame{f})).ok());
  EXPECT_FALSE(p.client.failed());
  EXPECT_EQ(unknown_seen, 1);
  // The connection still works afterwards.
  auto id = p.client.submit_request(get_request("www.example.com"), true);
  EXPECT_TRUE(id.ok());
}

TEST(H2Connection, PingIsAutoAcked) {
  Pair p;
  pump(p.client, p.server);
  p.client.submit_ping(0x1234);
  pump(p.client, p.server);
  EXPECT_EQ(p.client.frames_received(FrameType::kPing), 1u);
}

TEST(H2Connection, GoAwayDrainsConnection) {
  Pair p;
  pump(p.client, p.server);
  bool goaway_cb = false;
  ConnectionCallbacks ccb;
  ccb.on_goaway = [&](const GoAwayFrame& f) {
    goaway_cb = true;
    EXPECT_EQ(f.error, ErrorCode::kNoError);
  };
  p.client.set_callbacks(std::move(ccb));
  p.server.submit_goaway(ErrorCode::kNoError, "maintenance");
  pump(p.client, p.server);
  EXPECT_TRUE(goaway_cb);
  EXPECT_TRUE(p.client.goaway_received());
  EXPECT_FALSE(p.client.submit_request(get_request("a.com"), true).ok());
}

TEST(H2Connection, RstStreamClosesStream) {
  Pair p;
  pump(p.client, p.server);
  auto id = p.client.submit_request(get_request("www.example.com"), false);
  ASSERT_TRUE(id.ok());
  pump(p.client, p.server);
  ASSERT_TRUE(p.server.submit_rst_stream(*id, ErrorCode::kRefusedStream).ok());
  ErrorCode seen = ErrorCode::kNoError;
  ConnectionCallbacks ccb;
  ccb.on_rst_stream = [&](std::uint32_t, ErrorCode e) { seen = e; };
  p.client.set_callbacks(std::move(ccb));
  pump(p.client, p.server);
  EXPECT_EQ(seen, ErrorCode::kRefusedStream);
  EXPECT_TRUE(p.client.find_stream(*id)->closed());
}

// Counts non-closed streams among `ids` the slow way: what the O(1)
// active_stream_count() must always equal.
std::size_t brute_force_active(const Connection& conn,
                               const std::vector<std::uint32_t>& ids) {
  std::size_t active = 0;
  for (std::uint32_t id : ids) {
    const Stream* stream = conn.find_stream(id);
    if (stream != nullptr && !stream->closed()) ++active;
  }
  return active;
}

TEST(H2Connection, ActiveStreamCountMatchesBruteForceAtEveryStep) {
  Pair p;
  std::vector<std::uint32_t> ids;
  auto check = [&](const char* step) {
    EXPECT_EQ(p.client.active_stream_count(),
              brute_force_active(p.client, ids))
        << "client after " << step;
    EXPECT_EQ(p.server.active_stream_count(),
              brute_force_active(p.server, ids))
        << "server after " << step;
  };
  auto open = [&](bool end_stream) {
    auto id = p.client.submit_request(get_request("www.example.com"),
                                      end_stream);
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
    return *id;
  };
  const Bytes body = origin::util::from_string("body");
  pump(p.client, p.server);
  check("handshake");

  // Open, then half-close by END_STREAM from each side in turn.
  const std::uint32_t open_then_closed = open(false);
  check("open (local)");
  pump(p.client, p.server);
  check("open (remote)");
  const std::uint32_t half_closed = open(true);
  check("half-close (local)");
  pump(p.client, p.server);
  check("half-close (remote)");

  // Close both by END_STREAM in both directions.
  ASSERT_TRUE(p.server.submit_response(half_closed, {{":status", "200"}}, true)
                  .ok());
  check("response END_STREAM (server)");
  pump(p.client, p.server);
  check("response END_STREAM (client)");
  ASSERT_TRUE(
      p.server.submit_response(open_then_closed, {{":status", "200"}}, false)
          .ok());
  ASSERT_TRUE(p.server.submit_data(open_then_closed, body, true).ok());
  check("server half-closed (local)");
  pump(p.client, p.server);
  check("client half-closed (remote)");
  ASSERT_TRUE(p.client.submit_data(open_then_closed, body, true).ok());
  check("client END_STREAM closes");
  pump(p.client, p.server);
  check("server END_STREAM closes");

  // A reset sent by the client, received by the server.
  const std::uint32_t client_reset = open(false);
  pump(p.client, p.server);
  check("open for client reset");
  ASSERT_TRUE(p.client.submit_rst_stream(client_reset, ErrorCode::kCancel).ok());
  check("RST_STREAM sent (client)");
  pump(p.client, p.server);
  check("RST_STREAM received (server)");

  // A reset sent by the server, received by the client.
  const std::uint32_t server_reset = open(true);
  pump(p.client, p.server);
  ASSERT_TRUE(
      p.server.submit_rst_stream(server_reset, ErrorCode::kRefusedStream).ok());
  check("RST_STREAM sent (server)");
  pump(p.client, p.server);
  check("RST_STREAM received (client)");

  // Two streams still in flight when a GOAWAY arrives.
  open(false);
  open(true);
  pump(p.client, p.server);
  check("streams in flight");
  p.server.submit_goaway(ErrorCode::kNoError, "drain");
  pump(p.client, p.server);
  EXPECT_TRUE(p.client.goaway_received());
  check("GOAWAY received");
  EXPECT_EQ(p.client.active_stream_count(), 2u);
}

TEST(H2Connection, FramesReceivedCountsUnknownTypes) {
  Pair p;
  pump(p.client, p.server);
  for (const std::uint8_t type : {std::uint8_t{0x0b}, std::uint8_t{0xfe}}) {
    UnknownFrame f;
    f.type = type;
    f.payload = origin::util::from_string("x");
    ASSERT_TRUE(p.client.receive(serialize_frame(Frame{f})).ok());
    ASSERT_TRUE(p.client.receive(serialize_frame(Frame{f})).ok());
  }
  EXPECT_EQ(p.client.frames_received(static_cast<FrameType>(0x0b)), 2u);
  EXPECT_EQ(p.client.frames_received(static_cast<FrameType>(0xfe)), 2u);
  EXPECT_EQ(p.client.frames_received(static_cast<FrameType>(0xfd)), 0u);
  EXPECT_EQ(p.client.frames_received(FrameType::kSettings), 2u);
}

TEST(H2Connection, MaxConcurrentStreamsEnforcedOnSubmit) {
  Settings server_settings;
  server_settings.max_concurrent_streams = 2;
  Connection client(Connection::Role::kClient, make_origin("a.com"));
  Connection server(Connection::Role::kServer, make_origin("a.com"),
                    server_settings);
  pump(client, server);
  EXPECT_TRUE(client.submit_request(get_request("a.com"), false).ok());
  EXPECT_TRUE(client.submit_request(get_request("a.com"), false).ok());
  EXPECT_FALSE(client.submit_request(get_request("a.com"), false).ok());
}

TEST(H2Connection, FlowControlConsumedAndReplenished) {
  Pair p;
  pump(p.client, p.server);
  auto id = p.client.submit_request(get_request("www.example.com"), false);
  ASSERT_TRUE(id.ok());
  pump(p.client, p.server);
  const std::int64_t before = p.client.connection_send_window();
  Bytes chunk(1000, 0x42);
  ASSERT_TRUE(p.client.submit_data(*id, chunk, false).ok());
  EXPECT_EQ(p.client.connection_send_window(), before - 1000);
  pump(p.client, p.server);
  // Server auto-replenishes via WINDOW_UPDATE.
  EXPECT_EQ(p.client.connection_send_window(), before);
}

TEST(H2Connection, LargeBodySplitsAcrossFrames) {
  Pair p;
  pump(p.client, p.server);
  auto id = p.client.submit_request(get_request("www.example.com"), true);
  pump(p.client, p.server);
  std::size_t received = 0;
  bool end = false;
  ConnectionCallbacks ccb;
  ccb.on_data = [&](std::uint32_t, std::span<const std::uint8_t> d, bool es) {
    received += d.size();
    end = es;
  };
  p.client.set_callbacks(std::move(ccb));
  ASSERT_TRUE(p.server.submit_response(*id, {{":status", "200"}}, false).ok());
  Bytes body(50000, 0x7);  // > 16384, splits into 4 DATA frames
  ASSERT_TRUE(p.server.submit_data(*id, body, true).ok());
  pump(p.client, p.server);
  EXPECT_EQ(received, 50000u);
  EXPECT_TRUE(end);
}

TEST(H2Connection, SubmitDataBeyondWindowFails) {
  Pair p;
  pump(p.client, p.server);
  auto id = p.client.submit_request(get_request("www.example.com"), false);
  pump(p.client, p.server);
  Bytes big(70000, 1);  // exceeds default 65535 window
  EXPECT_FALSE(p.client.submit_data(*id, big, false).ok());
}

TEST(H2Connection, AltSvcDelivered) {
  Pair p;
  pump(p.client, p.server);
  AltSvcFrame got;
  ConnectionCallbacks ccb;
  ccb.on_altsvc = [&](const AltSvcFrame& f) { got = f; };
  p.client.set_callbacks(std::move(ccb));
  AltSvcFrame frame;
  frame.origin = "https://example.com";
  frame.field_value = "h3=\":443\"";
  ASSERT_TRUE(p.client.receive(serialize_frame(Frame{frame})).ok());
  EXPECT_EQ(got.origin, "https://example.com");
}

// --- OriginSet unit behaviour ---

TEST(OriginSetTest, ParseAndSerialize) {
  auto o = Origin::parse("https://example.com");
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->host, "example.com");
  EXPECT_EQ(o->port, 443);
  EXPECT_EQ(o->serialize(), "https://example.com");

  auto with_port = Origin::parse("https://example.com:8443");
  ASSERT_TRUE(with_port.has_value());
  EXPECT_EQ(with_port->port, 8443);
  EXPECT_EQ(with_port->serialize(), "https://example.com:8443");

  auto http = Origin::parse("http://example.com:80");
  ASSERT_TRUE(http.has_value());
  EXPECT_EQ(http->serialize(), "http://example.com");

  EXPECT_FALSE(Origin::parse("example.com").has_value());
  EXPECT_FALSE(Origin::parse("ftp://example.com").has_value());
  EXPECT_FALSE(Origin::parse("https://").has_value());
  EXPECT_FALSE(Origin::parse("https://example.com/path").has_value());
  EXPECT_FALSE(Origin::parse("https://example.com:99999").has_value());
}

TEST(OriginSetTest, CaseInsensitiveHost) {
  auto o = Origin::parse("https://EXAMPLE.com");
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->host, "example.com");
}

TEST(OriginSetTest, ImplicitSetRequiresDnsValidation) {
  OriginSet set(*Origin::parse("https://www.example.com"));
  EXPECT_TRUE(set.requires_dns_validation());
  EXPECT_TRUE(set.contains("www.example.com"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(OriginSetTest, DuplicateEntriesDeduplicated) {
  OriginSet set(*Origin::parse("https://a.example"));
  set.apply_origin_frame({"https://b.example", "https://b.example",
                          "https://a.example"});
  EXPECT_EQ(set.size(), 2u);
}

// --- Stream state machine ---

TEST(StreamStateMachine, HappyPathClientStream) {
  Stream s(1, 65535, 65535);
  EXPECT_EQ(s.state(), StreamState::kIdle);
  EXPECT_TRUE(s.apply(StreamEvent::kSendHeaders).ok());
  EXPECT_EQ(s.state(), StreamState::kOpen);
  EXPECT_TRUE(s.apply(StreamEvent::kSendEndStream).ok());
  EXPECT_EQ(s.state(), StreamState::kHalfClosedLocal);
  EXPECT_TRUE(s.apply(StreamEvent::kRecvHeaders).ok());
  EXPECT_TRUE(s.apply(StreamEvent::kRecvEndStream).ok());
  EXPECT_TRUE(s.closed());
}

TEST(StreamStateMachine, DataAfterEndStreamInvalid) {
  Stream s(1, 65535, 65535);
  (void)s.apply(StreamEvent::kSendHeaders);
  (void)s.apply(StreamEvent::kSendEndStream);
  (void)s.apply(StreamEvent::kRecvEndStream);
  EXPECT_FALSE(s.can_recv_data());
  EXPECT_FALSE(s.can_send_data());
}

TEST(StreamStateMachine, RstFromIdleInvalid) {
  Stream s(1, 65535, 65535);
  EXPECT_FALSE(s.apply(StreamEvent::kRecvRstStream).ok());
}

TEST(StreamStateMachine, PushPromiseReservesStream) {
  Stream s(2, 65535, 65535);
  EXPECT_TRUE(s.apply(StreamEvent::kRecvPushPromise).ok());
  EXPECT_EQ(s.state(), StreamState::kReservedRemote);
  EXPECT_TRUE(s.apply(StreamEvent::kRecvHeaders).ok());
  EXPECT_EQ(s.state(), StreamState::kHalfClosedLocal);
}

// --- Flow window unit behaviour ---

TEST(FlowWindowTest, ConsumeReplenish) {
  FlowWindow w(100);
  EXPECT_TRUE(w.consume(60).ok());
  EXPECT_EQ(w.available(), 40);
  EXPECT_FALSE(w.consume(41).ok());
  EXPECT_TRUE(w.replenish(10).ok());
  EXPECT_EQ(w.available(), 50);
}

TEST(FlowWindowTest, OverflowRejected) {
  FlowWindow w(0x7ffffff0);
  EXPECT_FALSE(w.replenish(0x100).ok());
  EXPECT_FALSE(w.replenish(0).ok());
}

TEST(FlowWindowTest, AdjustCanGoNegative) {
  FlowWindow w(100);
  EXPECT_TRUE(w.adjust(-200).ok());
  EXPECT_EQ(w.available(), -100);
  EXPECT_FALSE(w.can_send(1));
  EXPECT_TRUE(w.replenish(200).ok());
  EXPECT_TRUE(w.can_send(100));
}

}  // namespace
}  // namespace origin::h2
