#include <gtest/gtest.h>

#include <optional>

#include "hpack/hpack.h"
#include "hpack/huffman.h"
#include "hpack/integer.h"
#include "hpack/tables.h"
#include "util/bytes.h"

namespace origin::hpack {
namespace {

using origin::util::ByteReader;
using origin::util::Bytes;
using origin::util::ByteWriter;
using origin::util::to_hex;

Bytes from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

// --- Integers (RFC 7541 §C.1) ---

TEST(HpackInteger, SmallValueFitsPrefix) {
  ByteWriter w;
  encode_integer(10, 5, 0, w);
  EXPECT_EQ(to_hex(w.bytes()), "0a");
  ByteReader r(w.bytes());
  EXPECT_EQ(*decode_integer(r, 5), 10u);
}

TEST(HpackInteger, C1_2_LargeValueWithContinuation) {
  // RFC 7541 C.1.2: 1337 with 5-bit prefix = 1f 9a 0a.
  ByteWriter w;
  encode_integer(1337, 5, 0, w);
  EXPECT_EQ(to_hex(w.bytes()), "1f9a0a");
  ByteReader r(w.bytes());
  EXPECT_EQ(*decode_integer(r, 5), 1337u);
}

TEST(HpackInteger, C1_3_ValueAtOctetBoundary) {
  // RFC 7541 C.1.3: 42 with 8-bit prefix = 2a.
  ByteWriter w;
  encode_integer(42, 8, 0, w);
  EXPECT_EQ(to_hex(w.bytes()), "2a");
}

TEST(HpackInteger, FlagsPreserved) {
  ByteWriter w;
  encode_integer(2, 7, 0x80, w);
  EXPECT_EQ(w.bytes()[0], 0x82);  // :method GET indexed representation
}

TEST(HpackInteger, RoundTripSweep) {
  for (int prefix = 1; prefix <= 8; ++prefix) {
    for (std::uint64_t v : {0ull, 1ull, 30ull, 31ull, 127ull, 128ull, 255ull,
                            16383ull, 1ull << 20, 1ull << 33}) {
      ByteWriter w;
      encode_integer(v, prefix, 0, w);
      ByteReader r(w.bytes());
      auto decoded = decode_integer(r, prefix);
      ASSERT_TRUE(decoded.ok()) << prefix << " " << v;
      EXPECT_EQ(*decoded, v) << "prefix=" << prefix;
    }
  }
}

TEST(HpackInteger, TruncatedContinuationErrors) {
  Bytes data = {0x1f, 0x9a};  // missing final octet
  ByteReader r(data);
  EXPECT_FALSE(decode_integer(r, 5).ok());
}

TEST(HpackInteger, OverlongEncodingRejected) {
  Bytes data = {0x1f};
  for (int i = 0; i < 11; ++i) data.push_back(0x80);
  data.push_back(0x01);
  ByteReader r(data);
  EXPECT_FALSE(decode_integer(r, 5).ok());
}

// --- Huffman (RFC 7541 §C.4 vectors validate the Appendix B table) ---

TEST(HpackHuffman, C4_1_WwwExampleCom) {
  ByteWriter w;
  huffman_encode("www.example.com", w);
  EXPECT_EQ(to_hex(w.bytes()), "f1e3c2e5f23a6ba0ab90f4ff");
  std::string decoded;
  ASSERT_TRUE(huffman_decode(w.bytes(), decoded).ok());
  EXPECT_EQ(decoded, "www.example.com");
}

TEST(HpackHuffman, C4_2_NoCache) {
  ByteWriter w;
  huffman_encode("no-cache", w);
  EXPECT_EQ(to_hex(w.bytes()), "a8eb10649cbf");
}

TEST(HpackHuffman, C4_3_CustomKeyValue) {
  ByteWriter w1;
  huffman_encode("custom-key", w1);
  EXPECT_EQ(to_hex(w1.bytes()), "25a849e95ba97d7f");
  ByteWriter w2;
  huffman_encode("custom-value", w2);
  EXPECT_EQ(to_hex(w2.bytes()), "25a849e95bb8e8b4bf");
}

TEST(HpackHuffman, C6_ResponseStrings) {
  ByteWriter w;
  huffman_encode("302", w);
  EXPECT_EQ(to_hex(w.bytes()), "6402");
  ByteWriter w2;
  huffman_encode("private", w2);
  EXPECT_EQ(to_hex(w2.bytes()), "aec3771a4b");
}

TEST(HpackHuffman, EncodedSizeMatchesEncoding) {
  for (std::string s : {"", "a", "www.example.com", "!@#$%^&*()_+",
                        "A long header value with spaces and MixedCase 123"}) {
    ByteWriter w;
    huffman_encode(s, w);
    EXPECT_EQ(w.size(), huffman_encoded_size(s)) << s;
  }
}

TEST(HpackHuffman, RoundTripAllOctets) {
  std::string all;
  for (int i = 0; i < 256; ++i) all.push_back(static_cast<char>(i));
  ByteWriter w;
  huffman_encode(all, w);
  std::string decoded = "leftover";  // replaced, not appended to
  ASSERT_TRUE(huffman_decode(w.bytes(), decoded).ok());
  EXPECT_EQ(decoded, all);
}

TEST(HpackHuffman, RejectsBadPadding) {
  // "0" encodes to 5 bits 00000; pad with zeros instead of ones -> 0x00.
  Bytes bad = {0x00};
  std::string decoded;
  EXPECT_FALSE(huffman_decode(bad, decoded).ok());
}

TEST(HpackHuffman, RejectsEightBitPadding) {
  // A full byte of ones with no symbol is 8 bits of padding: invalid.
  ByteWriter w;
  huffman_encode("1", w);  // '1' = 00001 (5 bits) + 3 one-bits pad
  Bytes data = w.take();
  data.push_back(0xff);  // extra all-ones byte
  std::string decoded;
  EXPECT_FALSE(huffman_decode(data, decoded).ok());
}

// --- Tables ---

TEST(HpackTables, StaticTableSpotChecks) {
  EXPECT_EQ(static_table_entry(1)->name, ":authority");
  EXPECT_EQ(static_table_entry(2)->value, "GET");
  EXPECT_EQ(static_table_entry(7)->value, "https");
  EXPECT_EQ(static_table_entry(8)->value, "200");
  EXPECT_EQ(static_table_entry(61)->name, "www-authenticate");
  EXPECT_EQ(static_table_entry(0), nullptr);
  EXPECT_EQ(static_table_entry(62), nullptr);
}

TEST(HpackTables, DynamicInsertEvictsFifo) {
  DynamicTable t(100);
  t.insert({"aaaa", "1111"});  // size 8 + 32 = 40
  t.insert({"bbbb", "2222"});  // 40
  EXPECT_EQ(t.entry_count(), 2u);
  t.insert({"cccc", "3333"});  // 40 -> evicts oldest
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.entry(62)->name, "cccc");
  EXPECT_EQ(t.entry(63)->name, "bbbb");
  EXPECT_EQ(t.entry(64), nullptr);
}

TEST(HpackTables, OversizeEntryEmptiesTable) {
  DynamicTable t(64);
  t.insert({"a", "b"});
  std::string big(100, 'x');
  t.insert({"big", big});
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.size_bytes(), 0u);
}

TEST(HpackTables, ResizeEvicts) {
  DynamicTable t(200);
  t.insert({"aaaa", "1111"});
  t.insert({"bbbb", "2222"});
  t.set_max_size(50);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.entry(62)->name, "bbbb");
}

TEST(HpackTables, FindMatchPrefersExact) {
  DynamicTable t(4096);
  auto m = find_match(t, ":method", "GET");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->index, 2u);
  EXPECT_TRUE(m->value_matches);
  m = find_match(t, ":method", "PATCH");
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->value_matches);
  t.insert({":method", "PATCH"});
  m = find_match(t, ":method", "PATCH");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->index, 62u);
  EXPECT_TRUE(m->value_matches);
}

// The linear scan find_match replaced, kept as the reference: the static
// table in index order (lowest full match, else lowest name match), then
// the dynamic table.
std::optional<Match> linear_find_match(const DynamicTable& dynamic,
                                       std::string_view name,
                                       std::string_view value) {
  std::optional<Match> name_only;
  for (std::size_t i = 1; i <= kStaticTableSize; ++i) {
    const HeaderField* f = static_table_entry(i);
    if (f->name != name) continue;
    if (f->value == value) return Match{i, true};
    if (!name_only) name_only = Match{i, false};
  }
  for (std::size_t i = 0; i < dynamic.entry_count(); ++i) {
    const std::size_t combined = kStaticTableSize + 1 + i;
    const HeaderField* f = dynamic.entry(combined);
    if (f->name != name) continue;
    if (f->value == value) return Match{combined, true};
    if (!name_only) name_only = Match{combined, false};
  }
  return name_only;
}

void expect_same_match(const DynamicTable& table, std::string_view name,
                       std::string_view value) {
  const auto got = find_match(table, name, value);
  const auto want = linear_find_match(table, name, value);
  ASSERT_EQ(got.has_value(), want.has_value()) << name << ": " << value;
  if (!want) return;
  EXPECT_EQ(got->index, want->index) << name << ": " << value;
  EXPECT_EQ(got->value_matches, want->value_matches) << name << ": " << value;
}

TEST(HpackTables, FindMatchEqualsLinearScanOverTheStaticTable) {
  DynamicTable empty(4096);
  DynamicTable filled(4096);
  filled.insert({":method", "PATCH"});
  filled.insert({"x-custom", "1"});
  filled.insert({":status", "200"});  // shadowed by static index 8
  filled.insert({"cookie", "a=b"});
  for (const DynamicTable* table : {&empty, &filled}) {
    for (std::size_t i = 1; i <= kStaticTableSize; ++i) {
      const HeaderField& f = *static_table_entry(i);
      expect_same_match(*table, f.name, f.value);            // full match
      expect_same_match(*table, f.name, "no-such-value");    // name only
      expect_same_match(*table, f.name, "");
    }
    expect_same_match(*table, "x-custom", "1");
    expect_same_match(*table, "x-custom", "2");
    expect_same_match(*table, "cookie", "a=b");
    expect_same_match(*table, ":method", "PATCH");
    expect_same_match(*table, "no-such-name", "");
    expect_same_match(*table, "", "");
    expect_same_match(*table, "zzzz", "");  // sorts after every name
  }
}

// --- Encoder/Decoder ---

HeaderList request_headers(const std::string& authority, const std::string& path) {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", authority},
          {":path", path},
          {"user-agent", "origin-repro/1.0"},
          {"accept-encoding", "gzip, deflate"}};
}

TEST(Hpack, EncodeDecodeRoundTrip) {
  Encoder enc;
  Decoder dec;
  auto headers = request_headers("www.example.com", "/index.html");
  auto block = enc.encode(headers);
  auto decoded = dec.decode(block);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, headers);
}

TEST(Hpack, DecodeIntoAReusedListEqualsAFreshDecode) {
  // The h2 connection decodes every block into one reused list; shorter
  // and longer blocks must leave exactly their own fields behind.
  Encoder enc;
  Decoder reused_decoder;
  Decoder fresh_decoder;
  HeaderList reused;
  const std::vector<HeaderList> blocks = {
      request_headers("a-rather-long-hostname.example.com", "/a/long/path"),
      {{":status", "200"}},
      request_headers("b.example", "/"),
      {},
      {{":status", "404"}, {"content-type", "text/plain"}},
  };
  for (const HeaderList& headers : blocks) {
    const Bytes block = enc.encode(headers);
    ASSERT_TRUE(reused_decoder.decode(block, reused).ok());
    auto fresh = fresh_decoder.decode(block);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(reused, headers);
    EXPECT_EQ(*fresh, headers);
  }
}

TEST(Hpack, DynamicTableShrinksSecondBlock) {
  Encoder enc;
  Decoder dec;
  auto h = request_headers("cdn.example.net", "/app.js");
  auto block1 = enc.encode(h);
  auto block2 = enc.encode(h);
  EXPECT_LT(block2.size(), block1.size());
  EXPECT_TRUE(dec.decode(block1).ok());
  auto decoded = dec.decode(block2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
  EXPECT_EQ(dec.dynamic_table_entries(), enc.dynamic_table_entries());
}

TEST(Hpack, ManyBlocksStayInSync) {
  Encoder enc;
  Decoder dec;
  for (int i = 0; i < 50; ++i) {
    auto h = request_headers("host" + std::to_string(i % 7) + ".example.com",
                             "/res/" + std::to_string(i));
    auto decoded = dec.decode(enc.encode(h));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(*decoded, h);
  }
  EXPECT_EQ(dec.dynamic_table_size(), enc.dynamic_table_size());
}

TEST(Hpack, SensitiveHeaderNeverIndexed) {
  Encoder enc;
  enc.add_sensitive_name("authorization");
  HeaderList h = {{":method", "GET"}, {"authorization", "Bearer secret"}};
  auto block = enc.encode(h);
  // 0001xxxx never-indexed representation must appear.
  bool has_never_indexed = false;
  for (std::uint8_t b : block) {
    if ((b & 0xf0) == 0x10) has_never_indexed = true;
  }
  EXPECT_TRUE(has_never_indexed);
  // And the value must not enter the encoder's dynamic table.
  auto block2 = enc.encode(h);
  Decoder dec;
  EXPECT_TRUE(dec.decode(block).ok());
  auto decoded = dec.decode(block2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, h);
}

TEST(Hpack, TableSizeUpdateEmittedAndApplied) {
  Encoder enc(4096);
  Decoder dec(4096);
  EXPECT_TRUE(dec.decode(enc.encode(request_headers("a.com", "/"))).ok());
  enc.set_max_table_size(0);  // flush dynamic table
  auto block = enc.encode(request_headers("a.com", "/"));
  ASSERT_TRUE(dec.decode(block).ok());
  EXPECT_EQ(dec.dynamic_table_entries(), 0u);
  EXPECT_EQ(enc.dynamic_table_entries(), 0u);
}

TEST(Hpack, TableSizeUpdateAboveCeilingRejected) {
  Decoder dec(100);
  // 001xxxxx with value 4096 > ceiling 100.
  ByteWriter w;
  encode_integer(4096, 5, 0x20, w);
  EXPECT_FALSE(dec.decode(w.bytes()).ok());
}

TEST(Hpack, TableSizeUpdateAfterFieldRejected) {
  ByteWriter w;
  encode_integer(2, 7, 0x80, w);   // :method GET
  encode_integer(0, 5, 0x20, w);   // size update — illegal here
  Decoder dec;
  EXPECT_FALSE(dec.decode(w.bytes()).ok());
}

TEST(Hpack, IndexZeroRejected) {
  Bytes block = {0x80};
  Decoder dec;
  EXPECT_FALSE(dec.decode(block).ok());
}

TEST(Hpack, IndexOutOfRangeRejected) {
  ByteWriter w;
  encode_integer(200, 7, 0x80, w);  // empty dynamic table
  Decoder dec;
  EXPECT_FALSE(dec.decode(w.bytes()).ok());
}

TEST(Hpack, TruncatedStringRejected) {
  ByteWriter w;
  encode_integer(0, 6, 0x40, w);   // literal incremental, literal name
  encode_integer(10, 7, 0x00, w);  // name length 10, but no bytes follow
  Decoder dec;
  EXPECT_FALSE(dec.decode(w.bytes()).ok());
}

TEST(Hpack, RfcC3RequestExamplesDecode) {
  // RFC 7541 C.3.1: first request, fully indexed + one incremental literal.
  auto block = from_hex("828684410f7777772e6578616d706c652e636f6d");
  Decoder dec;
  auto decoded = dec.decode(block);
  ASSERT_TRUE(decoded.ok());
  HeaderList expected = {{":method", "GET"},
                         {":scheme", "http"},
                         {":path", "/"},
                         {":authority", "www.example.com"}};
  EXPECT_EQ(*decoded, expected);
  EXPECT_EQ(dec.dynamic_table_entries(), 1u);
  // C.3.2: second request reuses the dynamic entry.
  auto block2 = from_hex("828684be58086e6f2d6361636865");
  auto decoded2 = dec.decode(block2);
  ASSERT_TRUE(decoded2.ok());
  ASSERT_EQ(decoded2->size(), 5u);
  EXPECT_EQ((*decoded2)[3], (HeaderField{":authority", "www.example.com"}));
  EXPECT_EQ((*decoded2)[4], (HeaderField{"cache-control", "no-cache"}));
}

TEST(Hpack, RfcC4RequestExamplesDecodeHuffman) {
  // RFC 7541 C.4.1 (Huffman-coded authority).
  auto block = from_hex("828684418cf1e3c2e5f23a6ba0ab90f4ff");
  Decoder dec;
  auto decoded = dec.decode(block);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[3], (HeaderField{":authority", "www.example.com"}));
}

TEST(Hpack, EmptyBlockDecodesToEmptyList) {
  Decoder dec;
  auto decoded = dec.decode({});
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

// Property sweep: round-trip across table sizes.
class HpackTableSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HpackTableSizeSweep, RoundTripUnderTableSize) {
  Encoder enc(GetParam());
  Decoder dec(GetParam());
  for (int i = 0; i < 20; ++i) {
    HeaderList h = {{":method", "GET"},
                    {":path", "/x" + std::string(static_cast<std::size_t>(i) * 7, 'y')},
                    {"x-custom-" + std::to_string(i), std::string(static_cast<std::size_t>(i) * 3, 'v')}};
    auto decoded = dec.decode(enc.encode(h));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, h);
    EXPECT_EQ(dec.dynamic_table_size(), enc.dynamic_table_size());
    EXPECT_LE(dec.dynamic_table_size(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(TableSizes, HpackTableSizeSweep,
                         ::testing::Values(0, 64, 256, 4096, 65536));

}  // namespace
}  // namespace origin::hpack
