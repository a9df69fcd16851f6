// Regression tests distilled from the fuzz seed corpora (fuzz/corpus/).
//
// Each case replays a truncated or malformed input that the parsers must
// reject with a clean util::Result error — never a crash, throw, or
// sanitizer finding. Inputs mirror corpus files byte for byte so a corpus
// regression is also diagnosable here with a readable name, without the
// fuzz driver in the loop.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "dataset/corpus.h"
#include "dataset/manifest.h"
#include "dataset/snapshot.h"
#include "h2/frame.h"
#include "hpack/hpack.h"
#include "netsim/faults.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "server/http2_server.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/json.h"
#include "web/har_json.h"

namespace {

using origin::util::Bytes;

Bytes bytes(std::initializer_list<int> values) {
  Bytes out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// --- HTTP/2 frame codec --------------------------------------------------

TEST(FuzzRegressionH2, TruncatedHeaderIsIncompleteNotError) {
  origin::h2::FrameParser parser;
  auto frames = parser.feed(bytes({0x00, 0x00, 0x0c, 0x04, 0x00}));
  ASSERT_TRUE(frames.ok());
  EXPECT_TRUE(frames->empty());
  EXPECT_EQ(parser.buffered_bytes(), 5u);
}

TEST(FuzzRegressionH2, OversizeLengthRejected) {
  origin::h2::FrameParser parser;
  auto frames =
      parser.feed(bytes({0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}));
  ASSERT_FALSE(frames.ok());
  EXPECT_NE(frames.error().message.find("SETTINGS_MAX_FRAME_SIZE"),
            std::string::npos);
}

TEST(FuzzRegressionH2, DataPaddingExceedingPayloadRejected) {
  // corpus: h2_frame/data_pad_overflow.bin — pad length 0xff, 1-byte payload.
  origin::h2::FrameParser parser;
  auto frames = parser.feed(
      bytes({0x00, 0x00, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, 0x01, 0xff}));
  ASSERT_FALSE(frames.ok());
}

TEST(FuzzRegressionH2, HeadersTruncatedPriorityRejected) {
  // corpus: h2_frame/headers_trunc_priority.bin — PRIORITY flag, 3-byte payload.
  origin::h2::FrameParser parser;
  auto frames = parser.feed(bytes(
      {0x00, 0x00, 0x03, 0x01, 0x20, 0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x03}));
  ASSERT_FALSE(frames.ok());
}

TEST(FuzzRegressionH2, PushPromisePadBeyondBlockRejected) {
  // corpus: h2_frame/push_promise_bad_pad.bin.
  origin::h2::FrameParser parser;
  auto frames = parser.feed(bytes({0x00, 0x00, 0x06, 0x05, 0x08, 0x00, 0x00,
                                   0x00, 0x03, 0xff, 0x00, 0x00, 0x00, 0x04,
                                   0x61}));
  ASSERT_FALSE(frames.ok());
}

TEST(FuzzRegressionH2, OriginFrameTruncatedEntryRejected) {
  // corpus: h2_frame/origin_truncated.bin — entry claims 0xff bytes, has 6.
  origin::h2::FrameParser parser;
  Bytes wire = bytes({0x00, 0x00, 0x08, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00,
                      0x00, 0xff});
  for (char c : std::string("https:")) wire.push_back(static_cast<std::uint8_t>(c));
  auto frames = parser.feed(wire);
  ASSERT_FALSE(frames.ok());
  EXPECT_NE(frames.error().message.find("ORIGIN"), std::string::npos);
}

TEST(FuzzRegressionH2, OriginFrameOnNonzeroStreamIgnoredAsUnknown) {
  // RFC 8336 §2.1: MUST be ignored, not a connection error.
  origin::h2::FrameParser parser;
  Bytes wire = bytes({0x00, 0x00, 0x06, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x03,
                      0x00, 0x04});
  for (char c : std::string("http")) wire.push_back(static_cast<std::uint8_t>(c));
  auto frames = parser.feed(wire);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_TRUE(std::holds_alternative<origin::h2::UnknownFrame>((*frames)[0]));
}

TEST(FuzzRegressionH2, SettingsLengthNotMultipleOfSixRejected) {
  origin::h2::FrameParser parser;
  auto frames = parser.feed(bytes({0x00, 0x00, 0x05, 0x04, 0x00, 0x00, 0x00,
                                   0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05}));
  ASSERT_FALSE(frames.ok());
}

TEST(FuzzRegressionH2, WindowUpdateZeroIncrementRejected) {
  origin::h2::FrameParser parser;
  auto frames = parser.feed(bytes({0x00, 0x00, 0x04, 0x08, 0x00, 0x00, 0x00,
                                   0x00, 0x01, 0x00, 0x00, 0x00, 0x00}));
  ASSERT_FALSE(frames.ok());
}

// --- HPACK ---------------------------------------------------------------

TEST(FuzzRegressionHpack, IndexZeroRejected) {
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0x80}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, IndexOutOfRangeRejected) {
  // corpus: hpack/index_out_of_range.bin — index 190, static table has 61.
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0xbf, 0x7f}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, TruncatedIntegerRejected) {
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0xff, 0xff, 0xff}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, IntegerOverflowRejected) {
  // corpus: hpack/integer_overflow.bin — 11 continuation octets.
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0x7f, 0xff, 0xff, 0xff, 0xff, 0xff,
                                       0xff, 0xff, 0xff, 0xff, 0xff, 0x01}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, HuffmanEosRejected) {
  // corpus: hpack/huffman_eos.bin — EOS code inside a huffman string.
  origin::hpack::Decoder decoder;
  auto headers =
      decoder.decode(bytes({0x40, 0x01, 'a', 0x84, 0xff, 0xff, 0xff, 0xff}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, TruncatedStringRejected) {
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0x40, 0x05, 'a', 'b'}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, TableSizeUpdateAboveCeilingRejected) {
  // corpus: hpack/table_size_above_ceiling.bin — update to 8192, ceiling 4096.
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0x3f, 0xe1, 0x3f}));
  ASSERT_FALSE(headers.ok());
}

TEST(FuzzRegressionHpack, TableSizeUpdateAfterFieldRejected) {
  origin::hpack::Decoder decoder;
  auto headers = decoder.decode(bytes({0x82, 0x20}));
  ASSERT_FALSE(headers.ok());
}

// --- HAR JSON ------------------------------------------------------------

TEST(FuzzRegressionHar, WrongTypedFieldsRejectedNotThrown) {
  // corpus: har_json/wrong_types.har — page id is a number, entries a string.
  auto load = origin::web::from_har_string(
      R"({"log":{"pages":[{"id":5}],"entries":"nope"}})");
  ASSERT_FALSE(load.ok());
}

TEST(FuzzRegressionHar, EntryMissingUrlRejected) {
  auto load = origin::web::from_har_string(
      R"({"log":{"pages":[{"id":"x"}],"entries":[{"_origin":{}}]}})");
  ASSERT_FALSE(load.ok());
  EXPECT_NE(load.error().message.find("request.url"), std::string::npos);
}

TEST(FuzzRegressionHar, UrlWithoutSchemeRejected) {
  auto load = origin::web::from_har_string(
      R"({"log":{"pages":[{"id":"x"}],)"
      R"("entries":[{"request":{"url":"no-scheme"},"_origin":{},)"
      R"("response":{},"timings":{}}]}})");
  ASSERT_FALSE(load.ok());
}

TEST(FuzzRegressionHar, HugeNumbersClampedNotUndefined) {
  // corpus: har_json/huge_numbers.har — 1e308 ms startedDateTime must not
  // trip the double→int64 conversion (UB before clamp_to_int64).
  auto load = origin::web::from_har_string(
      R"({"log":{"pages":[{"id":"x","_trancoRank":1e308}],)"
      R"("entries":[{"request":{"url":"https://h/"},"_origin":{},)"
      R"("startedDateTime":1e308,"response":{},"timings":{}}]}})");
  ASSERT_TRUE(load.ok()) << load.error().message;
  ASSERT_EQ(load->entries.size(), 1u);

  // corpus: har_json/huge_timings.har — ±1e308 ms in startedDateTime and
  // in every timing saturate the same way, and the sums the export writes
  // (each entry's time, the page's onLoad) stay in range.
  std::string huge = R"({"log":{"pages":[{"id":"x"}],"entries":[)";
  for (const char* sign : {"", "-"}) {
    if (*sign != '\0') huge += ",";
    huge += R"({"request":{"url":"https://h/"},"_origin":{},"response":{},)";
    huge += std::string(R"("startedDateTime":)") + sign + "1e308,";
    huge += R"("timings":{)";
    for (const char* phase :
         {"blocked", "dns", "connect", "ssl", "send", "wait", "receive"}) {
      if (phase[0] != 'b') huge += ",";
      huge += std::string("\"") + phase + "\":" + sign + "1e308";
    }
    huge += "}}";
  }
  huge += "]}}";
  auto timings = origin::web::from_har_string(huge);
  ASSERT_TRUE(timings.ok()) << timings.error().message;
  ASSERT_EQ(timings->entries.size(), 2u);
  const auto& high = timings->entries[0];
  const auto& low = timings->entries[1];
  EXPECT_GT(high.start.micros(), 0);
  EXPECT_EQ(low.start.micros(), -high.start.micros());
  EXPECT_EQ(high.timings.wait, high.timings.blocked);
  EXPECT_EQ(low.timings.wait.count_micros(),
            -high.timings.wait.count_micros());
  const std::string exported = origin::web::to_har_string(*timings);
  auto reimported = origin::web::from_har_string(exported);
  ASSERT_TRUE(reimported.ok()) << reimported.error().message;
  EXPECT_EQ(origin::web::to_har_string(*reimported), exported);
}

TEST(FuzzRegressionHar, NestingBeyondDepthLimitRejected) {
  std::string deep(200, '[');
  deep.append(200, ']');
  auto doc = origin::util::Json::parse(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message.find("depth"), std::string::npos);
}

TEST(FuzzRegressionHar, BadUnicodeEscapeRejected) {
  auto doc = origin::util::Json::parse(R"({"s":"bad \u00zz escape"})");
  ASSERT_FALSE(doc.ok());
}

TEST(FuzzRegressionHar, UnterminatedStringRejected) {
  auto doc = origin::util::Json::parse(R"({"s":"unterminated)");
  ASSERT_FALSE(doc.ok());
}

TEST(FuzzRegressionHar, ClampToInt64Saturates) {
  EXPECT_EQ(origin::util::clamp_to_int64(1e308),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(origin::util::clamp_to_int64(-1e308),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(origin::util::clamp_to_int64(std::nan("")), 0);
  EXPECT_EQ(origin::util::clamp_to_int64(12345.0), 12345);
}


// --- Fault-plan config parser --------------------------------------------

TEST(FuzzRegressionFaultPlan, SeedMaxValueRoundTrips) {
  // corpus: fault_plan/seed_max.txt — u64 max must not overflow or wrap.
  auto config =
      origin::netsim::FaultConfig::parse("seed=18446744073709551615,corrupt=1");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->seed, 18446744073709551615ull);
  auto reparsed = origin::netsim::FaultConfig::parse(config->serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->serialize(), config->serialize());
}

TEST(FuzzRegressionFaultPlan, RateOutOfRangeRejected) {
  // corpus: fault_plan/rate_out_of_range.txt.
  EXPECT_FALSE(origin::netsim::FaultConfig::parse("rst=1.5").ok());
}

TEST(FuzzRegressionFaultPlan, NanRateRejected) {
  // corpus: fault_plan/rate_nan.txt — NaN compares false against bounds.
  EXPECT_FALSE(origin::netsim::FaultConfig::parse("rst=nan").ok());
}

TEST(FuzzRegressionFaultPlan, MissingEqualsRejected) {
  // corpus: fault_plan/missing_equals.txt.
  EXPECT_FALSE(origin::netsim::FaultConfig::parse("rst").ok());
}

TEST(FuzzRegressionFaultPlan, UnknownKeyRejected) {
  // corpus: fault_plan/unknown_key.txt.
  EXPECT_FALSE(origin::netsim::FaultConfig::parse("bogus=0.1").ok());
}

TEST(FuzzRegressionFaultPlan, WhitespaceAndTrailingCommaAccepted) {
  // corpus: fault_plan/whitespace_commas.txt.
  auto config = origin::netsim::FaultConfig::parse(
      " connect_timeout=0.5 , truncate=0.5 ,");
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->connect_timeout, 0.5);
  EXPECT_DOUBLE_EQ(config->truncate, 0.5);
}

// --- Server session (hostile client bytes) -------------------------------
//
// These mirror the fuzz/corpus/server_session seeds: a server with every
// overload defense armed on tiny budgets must shed, reap, or serve each
// input with a recorded reason and zero sessions left after quiescence.

origin::server::OverloadConfig tiny_budgets() {
  origin::server::OverloadConfig overload;
  overload.enabled = true;
  overload.max_session_rsts = 8;
  overload.max_session_pings = 8;
  overload.max_session_settings = 4;
  overload.max_session_header_bytes = 2048;
  overload.max_session_response_bytes = 64 * 1024;
  overload.max_session_streams = 8;
  overload.frame_budget_grace = 64;
  overload.stall_timeout = origin::util::Duration::millis(200);
  overload.sweep_interval = origin::util::Duration::millis(50);
  overload.drain_grace = origin::util::Duration::millis(100);
  overload.drain_linger = origin::util::Duration::millis(20);
  return overload;
}

// HPACK block for GET https://www.site.com/ — the exact bytes the corpus
// seeds carry: indexed :method GET, :scheme https, :path /, then a literal
// :authority.
Bytes get_header_block() {
  Bytes block = bytes({0x82, 0x87, 0x84, 0x41, 0x0c});
  for (char c : std::string("www.site.com")) {
    block.push_back(static_cast<std::uint8_t>(c));
  }
  return block;
}

struct ServerSessionResult {
  origin::server::Http2Server::Stats stats;
  std::size_t live_after = 0;
  std::string client_close;
};

ServerSessionResult run_server_session(const Bytes& payload,
                                       bool with_preface = true,
                                       bool drain_midway = false) {
  origin::netsim::Simulator sim;
  origin::netsim::Network net(sim);
  origin::server::ServerConfig config;
  config.overload = tiny_budgets();
  origin::server::Http2Server server(std::move(config));
  server.add_vhost("www.site.com", [](std::string_view) {
    origin::server::Response response;
    response.body = Bytes(512, 0x2a);
    return response;
  });
  const auto addr = origin::dns::IpAddress::v4(1);
  server.listen(net, addr);

  Bytes wire;
  if (with_preface) {
    wire.assign(origin::h2::kClientPreface.begin(),
                origin::h2::kClientPreface.end());
  }
  wire.insert(wire.end(), payload.begin(), payload.end());

  ServerSessionResult result;
  net.connect("regression-client", addr,
              [&](origin::util::Result<origin::netsim::TcpEndpoint> endpoint) {
                ASSERT_TRUE(endpoint.ok());
                auto wire_endpoint = origin::netsim::TcpEndpoint(*endpoint);
                wire_endpoint.set_on_close([&result](const std::string& reason) {
                  result.client_close = reason;
                });
                if (!wire.empty()) wire_endpoint.send(wire);
              });
  if (drain_midway) {
    sim.schedule(origin::util::Duration::millis(40),
                 [&server]() { server.begin_drain("regression drain"); });
  }
  sim.run_until_idle();
  result.stats = server.stats();
  result.live_after = server.live_sessions();
  return result;
}

TEST(FuzzRegressionServerSession, CleanGetServesThenStallSweepReaps) {
  // corpus: server_session/clean_get.bin — SETTINGS + a well-formed GET;
  // the client never hangs up, so the stall sweep must reap the session.
  Bytes payload = origin::h2::serialize_frame(origin::h2::SettingsFrame{});
  origin::h2::HeadersFrame get;
  get.stream_id = 1;
  get.header_block = get_header_block();
  get.end_stream = true;
  for (std::uint8_t b : origin::h2::serialize_frame(get)) payload.push_back(b);

  auto result = run_server_session(payload);
  EXPECT_EQ(result.stats.responses_200, 1u);
  EXPECT_EQ(result.stats.close_reasons.count("overload: stall timeout"), 1u);
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, PingFloodShedPastBudget) {
  // corpus: server_session/ping_flood.bin — 12 PINGs against a budget of 8.
  Bytes payload = origin::h2::serialize_frame(origin::h2::SettingsFrame{});
  for (std::uint64_t i = 0; i < 12; ++i) {
    origin::h2::PingFrame ping;
    ping.opaque = i;
    for (std::uint8_t b : origin::h2::serialize_frame(ping)) payload.push_back(b);
  }
  auto result = run_server_session(payload);
  EXPECT_EQ(result.stats.sessions_shed, 1u);
  EXPECT_EQ(result.stats.close_reasons.count("overload: ping flood"), 1u);
  EXPECT_EQ(result.client_close, "overload: ping flood");
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, RapidResetShedPastRstBudget) {
  // corpus: server_session/rapid_reset.bin — 12 open-and-cancel rounds
  // against an RST budget of 8.
  Bytes payload = origin::h2::serialize_frame(origin::h2::SettingsFrame{});
  for (std::uint32_t i = 0; i < 12; ++i) {
    origin::h2::HeadersFrame open;
    open.stream_id = 1 + 2 * i;
    open.header_block = get_header_block();
    open.end_stream = false;
    for (std::uint8_t b : origin::h2::serialize_frame(open)) payload.push_back(b);
    origin::h2::RstStreamFrame cancel;
    cancel.stream_id = 1 + 2 * i;
    cancel.error = origin::h2::ErrorCode::kCancel;
    for (std::uint8_t b : origin::h2::serialize_frame(cancel)) {
      payload.push_back(b);
    }
  }
  auto result = run_server_session(payload);
  EXPECT_EQ(result.stats.sessions_shed, 1u);
  EXPECT_EQ(result.stats.close_reasons.count("overload: rapid-reset flood"),
            1u);
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, BadPrefaceIsProtocolErrorNotCrash) {
  // corpus: server_session/bad_preface.bin — HTTP/1.1 bytes where the h2
  // preface belongs.
  Bytes payload;
  for (char c : std::string("GET / HTTP/1.1\r\nHost: www.site.com\r\n\r\n")) {
    payload.push_back(static_cast<std::uint8_t>(c));
  }
  auto result = run_server_session(payload, /*with_preface=*/false);
  EXPECT_EQ(result.stats.h2_protocol_errors, 1u);
  EXPECT_NE(result.client_close.find("h2 protocol error"), std::string::npos);
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, PartialPrefaceReapedByStallSweep) {
  // corpus: server_session/slowloris_trickle.bin — 8 preface bytes, then
  // silence; only the deadline-driven sweep can reclaim the session.
  Bytes payload;
  for (char c : std::string("PRI * HT")) {
    payload.push_back(static_cast<std::uint8_t>(c));
  }
  auto result = run_server_session(payload, /*with_preface=*/false);
  EXPECT_EQ(result.stats.sessions_reaped_stalled, 1u);
  EXPECT_EQ(result.stats.close_reasons.count("overload: stall timeout"), 1u);
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, OversizedFrameLengthIsProtocolError) {
  // corpus: server_session/oversized_frame.bin — 24-bit length 0xffffff
  // far past SETTINGS_MAX_FRAME_SIZE.
  Bytes payload = bytes({0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01});
  auto result = run_server_session(payload);
  EXPECT_EQ(result.stats.h2_protocol_errors, 1u);
  EXPECT_EQ(result.live_after, 0u);
}

TEST(FuzzRegressionServerSession, DrainMidRequestClosesClean) {
  // corpus: server_session/drain_midway.bin — begin_drain after a served
  // GET; the session must close "drain: complete" after the linger, not
  // hang until the stall sweep.
  Bytes payload = origin::h2::serialize_frame(origin::h2::SettingsFrame{});
  origin::h2::HeadersFrame get;
  get.stream_id = 1;
  get.header_block = get_header_block();
  get.end_stream = true;
  for (std::uint8_t b : origin::h2::serialize_frame(get)) payload.push_back(b);

  auto result = run_server_session(payload, /*with_preface=*/true,
                                   /*drain_midway=*/true);
  EXPECT_EQ(result.stats.drains_started, 1u);
  EXPECT_EQ(result.stats.drained_clean, 1u);
  EXPECT_EQ(result.stats.close_reasons.count("drain: complete"), 1u);
  EXPECT_EQ(result.client_close, "drain: complete");
  EXPECT_EQ(result.live_after, 0u);
}

// --- corpus shard snapshots ----------------------------------------------

// Smallest well-formed snapshot: an empty shard (header + empty symbol
// table + 30 zero-length column records). All corruption cases below mirror
// corpus_snapshot/ seeds byte for byte.
Bytes empty_shard_snapshot() {
  origin::dataset::TimelineColumns columns;
  columns.set_identity(3, 42, 4096);
  return origin::dataset::encode_snapshot(columns);
}

origin::util::Result<origin::dataset::SnapshotReader> open_snapshot(
    const Bytes& bytes) {
  return origin::dataset::SnapshotReader::open(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

// Recomputes the v2 CRC footer after a deliberate body mutation, so the
// corruption cases below reach the header checks they target instead of
// stopping at the checksum gate.
Bytes reseal(Bytes snapshot) {
  const std::size_t body =
      snapshot.size() - origin::dataset::kSnapshotFooterBytes;
  const std::uint64_t crc = origin::util::crc64(
      std::span<const std::uint8_t>(snapshot.data(), body));
  for (std::size_t i = 0; i < 8; ++i) {
    snapshot[body + 4 + i] =
        static_cast<std::uint8_t>(crc >> (8 * (7 - i)));
  }
  return snapshot;
}

TEST(FuzzRegressionCorpusSnapshot, EmptyShardAcceptedWithZeroPages) {
  // corpus: corpus_snapshot/empty_shard.ocs
  auto reader = open_snapshot(empty_shard_snapshot());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().meta().shard_index, 3u);
  EXPECT_EQ(reader.value().meta().corpus_seed, 42u);
  EXPECT_EQ(reader.value().meta().first_site, 4096u);
  EXPECT_EQ(reader.value().meta().pages, 0u);
  origin::web::PageLoad load;
  EXPECT_FALSE(reader.value().next_page(&load));
}

TEST(FuzzRegressionCorpusSnapshot, TruncationAnywhereRejected) {
  // corpus: corpus_snapshot/truncated.ocs — a prefix cut mid-column; here
  // every proper prefix must be rejected, never crash.
  const Bytes snapshot = empty_shard_snapshot();
  for (std::size_t keep = 0; keep < snapshot.size(); ++keep) {
    Bytes prefix(snapshot.begin(),
                 snapshot.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(open_snapshot(prefix).ok()) << "prefix length " << keep;
  }
}

TEST(FuzzRegressionCorpusSnapshot, BadMagicRejected) {
  // corpus: corpus_snapshot/bad_magic.ocs — resealed so the magic check
  // itself rejects, not the checksum.
  Bytes snapshot = empty_shard_snapshot();
  snapshot[0] ^= 0xFF;
  EXPECT_FALSE(open_snapshot(reseal(std::move(snapshot))).ok());
}

TEST(FuzzRegressionCorpusSnapshot, HugeRowCountRejected) {
  // corpus: corpus_snapshot/huge_counts.ocs — the pages field (header
  // offset 33) forced to ~2^64 must fail the row cap / cross-sum checks,
  // not drive a huge allocation. Resealed past the checksum gate.
  Bytes snapshot = empty_shard_snapshot();
  for (std::size_t i = 33; i < 41; ++i) snapshot[i] = 0xFF;
  EXPECT_FALSE(open_snapshot(reseal(std::move(snapshot))).ok());
}

TEST(FuzzRegressionCorpusSnapshot, BigEndianSentinelRejected) {
  // corpus: corpus_snapshot/bad_endian.ocs — column payloads are declared
  // little-endian; a sentinel of 2 (big-endian writer) must be rejected
  // rather than silently byte-swapped. Resealed past the checksum gate.
  Bytes snapshot = empty_shard_snapshot();
  snapshot[8] = 2;
  EXPECT_FALSE(open_snapshot(reseal(std::move(snapshot))).ok());
}

TEST(FuzzRegressionCorpusSnapshot, BadFooterCrcRejected) {
  // corpus: corpus_snapshot/bad_crc.ocs — well-formed framing, one flipped
  // checksum byte.
  Bytes snapshot = empty_shard_snapshot();
  snapshot[snapshot.size() - 1] ^= 0x41;
  EXPECT_FALSE(open_snapshot(snapshot).ok());
}

TEST(FuzzRegressionCorpusSnapshot, TrailingByteRejected) {
  // corpus: corpus_snapshot/trailing_byte.ocs — canonical form admits no
  // suffix; one extra byte after the last column record is an error.
  Bytes snapshot = empty_shard_snapshot();
  snapshot.push_back(0);
  EXPECT_FALSE(open_snapshot(snapshot).ok());
}

// --- OCM1 run-manifest journal -------------------------------------------

origin::dataset::ManifestHeader manifest_header() {
  origin::dataset::ManifestHeader header;
  header.config_digest = 0xDEADBEEFCAFEF00DULL;
  header.corpus_seed = 2022;
  header.eligible_sites = 9455;
  header.sites_per_shard = 4096;
  header.shard_total = 3;
  return header;
}

origin::dataset::ManifestRecord manifest_record(std::uint64_t index,
                                                std::uint64_t crc) {
  origin::dataset::ManifestRecord record;
  record.shard_index = index;
  record.first_site = index * 4096;
  record.pages = 100;
  record.entries = 4000;
  record.encoded_bytes = 40'000;
  record.content_crc64 = crc;
  return record;
}

origin::util::Result<origin::dataset::Manifest> open_manifest(
    const Bytes& bytes) {
  return origin::dataset::read_manifest(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

TEST(FuzzRegressionManifest, TruncationTornTailIsDroppedAndCounted) {
  // corpus: manifest/torn_tail.ocm and truncated_header.ocm — a journal cut
  // mid-record parses to the records before the tear; a journal cut inside
  // the header is an error, never a crash.
  Bytes journal = origin::dataset::encode_manifest_header(manifest_header());
  const Bytes record =
      origin::dataset::encode_manifest_record(manifest_record(0, 0x1111));
  journal.insert(journal.end(), record.begin(), record.end());
  for (std::size_t keep = 0; keep < journal.size(); ++keep) {
    Bytes prefix(journal.begin(),
                 journal.begin() + static_cast<std::ptrdiff_t>(keep));
    auto parsed = open_manifest(prefix);
    if (keep < origin::dataset::kManifestHeaderBytes) {
      EXPECT_FALSE(parsed.ok()) << "accepted torn header, length " << keep;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << "rejected torn tail, length " << keep;
    const std::size_t whole_records =
        (keep - origin::dataset::kManifestHeaderBytes) /
        origin::dataset::kManifestRecordBytes;
    EXPECT_EQ(parsed->records.size(), whole_records);
    EXPECT_EQ(parsed->tail_bytes_dropped,
              keep - origin::dataset::kManifestHeaderBytes -
                  whole_records * origin::dataset::kManifestRecordBytes);
  }
}

TEST(FuzzRegressionManifest, DuplicateShardRecordsResolveLastWins) {
  // corpus: manifest/duplicate_records.ocm — a shard re-journaled after
  // quarantine recovery appears twice; replay must trust the final record.
  Bytes journal = origin::dataset::encode_manifest_header(manifest_header());
  for (const auto& record : {manifest_record(1, 0x1111),
                             manifest_record(1, 0x2222)}) {
    const Bytes encoded = origin::dataset::encode_manifest_record(record);
    journal.insert(journal.end(), encoded.begin(), encoded.end());
  }
  auto parsed = open_manifest(journal);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->records.size(), 2u);
  const auto latest = parsed->latest_records();
  EXPECT_EQ(latest.size(), 1u);
  const auto* winner = latest.find(std::uint64_t{1});
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->content_crc64, 0x2222u);
}

TEST(FuzzRegressionManifest, ConfigDigestMismatchParsesButDiffers) {
  // corpus: manifest/config_mismatch.ocm — a journal from a different run
  // config is well-formed bytes; rejecting it is the resume layer's job
  // (StreamingCorpus::config_digest), so the reader must surface the
  // foreign digest intact rather than failing.
  auto foreign = manifest_header();
  foreign.config_digest = 0x1;
  Bytes journal = origin::dataset::encode_manifest_header(foreign);
  auto parsed = open_manifest(journal);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.config_digest, 0x1u);
  EXPECT_NE(parsed->header.config_digest,
            manifest_header().config_digest);
}

TEST(FuzzRegressionManifest, TrailingBytesDroppedNeverReadAsRecords) {
  // corpus: manifest/trailing_garbage.ocm — garbage after the last valid
  // record is counted tail, and a flipped byte inside a record ends the
  // journal at the previous record (its CRC no longer matches).
  Bytes journal = origin::dataset::encode_manifest_header(manifest_header());
  const Bytes record =
      origin::dataset::encode_manifest_record(manifest_record(0, 0x1111));
  journal.insert(journal.end(), record.begin(), record.end());
  Bytes garbage = journal;
  for (int i = 0; i < 9; ++i) garbage.push_back(0);
  auto parsed = open_manifest(garbage);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->records.size(), 1u);
  EXPECT_EQ(parsed->tail_bytes_dropped, 9u);

  Bytes bent = journal;
  bent[origin::dataset::kManifestHeaderBytes + 10] ^= 0x41;
  auto rejected = open_manifest(bent);
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(rejected->records.empty());
  EXPECT_EQ(rejected->tail_bytes_dropped,
            origin::dataset::kManifestRecordBytes);
}

}  // namespace
