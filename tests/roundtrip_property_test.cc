// Randomized round-trip properties across the codecs: HPACK header blocks,
// HTTP/2 frames, and HAR JSON all survive serialize→parse→serialize under
// generated inputs. Seeds are fixed per
// test-suite instance, so failures reproduce exactly.
#include <gtest/gtest.h>

#include "h2/frame.h"
#include "hpack/hpack.h"
#include "util/json.h"
#include "util/rng.h"

namespace origin {
namespace {

using origin::util::Rng;

std::string random_token(Rng& rng, std::size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789-._~";
  std::string out;
  const std::size_t len = 1 + rng.uniform(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.uniform(sizeof(kAlphabet) - 1)]);
  }
  return out;
}

std::string random_value(Rng& rng, std::size_t max_len) {
  // Header values may contain most printable octets.
  std::string out;
  const std::size_t len = rng.uniform(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(0x20 + rng.uniform(0x5f)));
  }
  return out;
}

class CodecPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecPropertySweep, HpackRandomHeaderListsRoundTrip) {
  Rng rng(GetParam());
  hpack::Encoder encoder;
  hpack::Decoder decoder;
  for (int block = 0; block < 40; ++block) {
    hpack::HeaderList headers;
    headers.push_back({":method", rng.bernoulli(0.5) ? "GET" : "POST"});
    headers.push_back({":path", "/" + random_token(rng, 40)});
    const std::size_t extra = rng.uniform(12);
    for (std::size_t i = 0; i < extra; ++i) {
      headers.push_back({random_token(rng, 24), random_value(rng, 64)});
    }
    auto decoded = decoder.decode(encoder.encode(headers));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(*decoded, headers);
    EXPECT_EQ(decoder.dynamic_table_size(), encoder.dynamic_table_size());
  }
}

TEST_P(CodecPropertySweep, H2RandomFramesRoundTripUnderAnyChunking) {
  Rng rng(GetParam() ^ 0xF4A3);
  std::vector<h2::Frame> sent;
  origin::util::Bytes wire;
  auto push = [&](h2::Frame frame) {
    auto bytes = h2::serialize_frame(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
    sent.push_back(std::move(frame));
  };
  for (int i = 0; i < 60; ++i) {
    switch (rng.uniform(6)) {
      case 0: {
        h2::DataFrame frame;
        frame.stream_id = 1 + 2 * static_cast<std::uint32_t>(rng.uniform(50));
        frame.data.resize(rng.uniform(2000));
        for (auto& byte : frame.data) byte = static_cast<std::uint8_t>(rng.next());
        frame.end_stream = rng.bernoulli(0.3);
        push(h2::Frame{frame});
        break;
      }
      case 1: {
        h2::OriginFrame frame;
        const std::size_t origins = rng.uniform(6);
        for (std::size_t o = 0; o < origins; ++o) {
          frame.origins.push_back("https://" + random_token(rng, 30) + ".example");
        }
        push(h2::Frame{frame});
        break;
      }
      case 2: {
        h2::WindowUpdateFrame frame;
        frame.stream_id = static_cast<std::uint32_t>(rng.uniform(100));
        frame.increment = 1 + static_cast<std::uint32_t>(rng.uniform(1 << 20));
        push(h2::Frame{frame});
        break;
      }
      case 3: {
        h2::PingFrame frame;
        frame.opaque = rng.next();
        frame.ack = rng.bernoulli(0.5);
        push(h2::Frame{frame});
        break;
      }
      case 4: {
        h2::GoAwayFrame frame;
        frame.last_stream_id = static_cast<std::uint32_t>(rng.uniform(1000));
        frame.error = static_cast<h2::ErrorCode>(rng.uniform(14));
        frame.debug_data = random_value(rng, 40);
        push(h2::Frame{frame});
        break;
      }
      default: {
        h2::UnknownFrame frame;
        frame.type = static_cast<std::uint8_t>(0x20 + rng.uniform(0xd0));
        frame.flags = static_cast<std::uint8_t>(rng.next());
        frame.stream_id = static_cast<std::uint32_t>(rng.uniform(1000));
        frame.payload.resize(rng.uniform(300));
        for (auto& byte : frame.payload) byte = static_cast<std::uint8_t>(rng.next());
        push(h2::Frame{frame});
        break;
      }
    }
  }
  // Feed in random chunk sizes.
  h2::FrameParser parser;
  std::vector<h2::Frame> received;
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t chunk = 1 + rng.uniform(97);
    std::span<const std::uint8_t> piece(
        wire.data() + offset, std::min(chunk, wire.size() - offset));
    auto frames = parser.feed(piece);
    ASSERT_TRUE(frames.ok()) << frames.error().message;
    for (auto& frame : *frames) received.push_back(std::move(frame));
    offset += piece.size();
  }
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    // Re-serialization must be byte-identical — a stronger check than
    // field-by-field comparison.
    EXPECT_EQ(h2::serialize_frame(received[i]), h2::serialize_frame(sent[i]))
        << "frame " << i;
  }
}

TEST_P(CodecPropertySweep, JsonRandomDocumentsRoundTrip) {
  Rng rng(GetParam() ^ 0x7503);
  // Random nested document.
  std::function<util::Json(int)> generate = [&](int depth) -> util::Json {
    const std::uint64_t kind = rng.uniform(depth > 2 ? 4 : 6);
    switch (kind) {
      case 0: return util::Json(static_cast<std::int64_t>(rng.next() >> 16));
      case 1: return util::Json(rng.uniform_double() * 1e4);
      case 2: return util::Json(random_value(rng, 30));
      case 3: return util::Json(rng.bernoulli(0.5));
      case 4: {
        util::Json::Array array;
        const std::size_t n = rng.uniform(5);
        for (std::size_t i = 0; i < n; ++i) array.push_back(generate(depth + 1));
        return util::Json(std::move(array));
      }
      default: {
        util::Json::Object object;
        const std::size_t n = rng.uniform(5);
        for (std::size_t i = 0; i < n; ++i) {
          object[random_token(rng, 12)] = generate(depth + 1);
        }
        return util::Json(std::move(object));
      }
    }
  };
  for (int doc = 0; doc < 50; ++doc) {
    util::Json document = generate(0);
    auto parsed = util::Json::parse(document.dump());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message << "\n" << document.dump();
    EXPECT_EQ(parsed->dump(), document.dump());
    // Pretty-printed form parses back to the same compact form.
    auto pretty = util::Json::parse(document.dump(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty->dump(), document.dump());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertySweep,
                         ::testing::Values(0x11, 0x22, 0x33, 0x44, 0x55));

}  // namespace
}  // namespace origin
