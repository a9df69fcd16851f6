#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <random>

#include "dataset/collector.h"
#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "model/coalescing_model.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/har_json.h"

namespace origin {
namespace {

using util::Json;

// --- JSON core ---

TEST(Json, BuildAndDump) {
  Json::Object object;
  object["name"] = "value";
  object["count"] = 42;
  object["ratio"] = 0.5;
  object["flag"] = true;
  object["nothing"] = nullptr;
  object["list"] = Json(Json::Array{Json(1), Json(2)});
  Json json(std::move(object));
  EXPECT_EQ(json.dump(),
            R"({"count":42,"flag":true,"list":[1,2],"name":"value",)"
            R"("nothing":null,"ratio":0.5})");
}

TEST(Json, PrettyPrintHasIndentation) {
  Json::Object object;
  object["a"] = 1;
  std::string pretty = Json(std::move(object)).dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"s":"hi","i":-3,"d":2.25,"b":false,"n":null,"a":[1,"two",{"k":3}]})";
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ((*parsed)["s"].as_string(), "hi");
  EXPECT_EQ((*parsed)["i"].as_int(), -3);
  EXPECT_DOUBLE_EQ((*parsed)["d"].as_double(), 2.25);
  EXPECT_FALSE((*parsed)["b"].as_bool());
  EXPECT_TRUE((*parsed)["n"].is_null());
  const auto& array = (*parsed)["a"].as_array();
  ASSERT_EQ(array.size(), 3u);
  EXPECT_EQ(array[2]["k"].as_int(), 3);
  // Dump -> parse -> dump is a fixed point.
  auto redumped = Json::parse(parsed->dump());
  ASSERT_TRUE(redumped.ok());
  EXPECT_EQ(redumped->dump(), parsed->dump());
}

TEST(Json, StringEscapes) {
  Json value(std::string("line\n\"quoted\"\tand\\slash"));
  auto parsed = Json::parse(value.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "line\n\"quoted\"\tand\\slash");
}

TEST(Json, ParseUnicodeEscape) {
  auto parsed = Json::parse(R"("aAb")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "aAb");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("12 34").ok());
  EXPECT_FALSE(Json::parse("nul").ok());
}

TEST(Json, MissingKeyIsNull) {
  auto parsed = Json::parse(R"({"a":1})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)["missing"].is_null());
  EXPECT_FALSE(parsed->contains("missing"));
  EXPECT_TRUE(parsed->contains("a"));
}

// --- HAR export/import ---

web::PageLoad sample_load() {
  dataset::CorpusOptions options;
  options.site_count = 60;
  options.seed = 3;
  options.tail_service_count = 80;
  dataset::Corpus corpus(options);
  browser::LoaderOptions loader_options;
  browser::PageLoader loader(corpus.env(), loader_options);
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    if (corpus.sites()[i].crawl_succeeded) {
      return loader.load(corpus.page_for_site(i));
    }
  }
  return {};
}

TEST(HarJson, ExportHasHarShape) {
  auto load = sample_load();
  ASSERT_FALSE(load.entries.empty());
  auto parsed = Json::parse(web::to_har_string(load));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Json& har = parsed.value();
  EXPECT_EQ(har["log"]["version"].as_string(), "1.2");
  EXPECT_EQ(har["log"]["creator"]["name"].as_string(),
            "respect-the-origin-repro");
  ASSERT_TRUE(har["log"]["entries"].is_array());
  EXPECT_EQ(har["log"]["entries"].as_array().size(), load.entries.size());
  const Json& first = har["log"]["entries"].as_array().front();
  EXPECT_TRUE(first["timings"].is_object());
  EXPECT_TRUE(first["_origin"].is_object());
  EXPECT_EQ(first["request"]["method"].as_string(), "GET");
}

TEST(HarJson, RoundTripPreservesAnalysisInputs) {
  auto load = sample_load();
  ASSERT_FALSE(load.entries.empty());
  auto text = web::to_har_string(load);
  auto restored = web::from_har_string(text);
  ASSERT_TRUE(restored.ok()) << restored.error().message;

  EXPECT_EQ(restored->base_hostname, load.base_hostname);
  EXPECT_EQ(restored->tranco_rank, load.tranco_rank);
  EXPECT_EQ(restored->extra_dns_queries, load.extra_dns_queries);
  EXPECT_EQ(restored->extra_tls_connections, load.extra_tls_connections);
  ASSERT_EQ(restored->entries.size(), load.entries.size());

  // Everything the §4 model reads must survive the round trip exactly.
  EXPECT_EQ(restored->dns_query_count(), load.dns_query_count());
  EXPECT_EQ(restored->tls_connection_count(), load.tls_connection_count());
  EXPECT_EQ(restored->certificate_validation_count(),
            load.certificate_validation_count());
  EXPECT_EQ(restored->unique_connection_count(),
            load.unique_connection_count());
  EXPECT_EQ(restored->unique_asns(), load.unique_asns());
  for (std::size_t i = 0; i < load.entries.size(); ++i) {
    const auto& a = load.entries[i];
    const auto& b = restored->entries[i];
    EXPECT_EQ(b.hostname, a.hostname);
    EXPECT_EQ(b.asn, a.asn);
    EXPECT_EQ(b.server_address, a.server_address);
    EXPECT_EQ(b.mode, a.mode);
    EXPECT_EQ(b.version, a.version);
    EXPECT_EQ(b.secure, a.secure);
    EXPECT_EQ(b.connection_id, a.connection_id);
    EXPECT_EQ(b.cert_issuer, a.cert_issuer);
    EXPECT_EQ(b.cert_san_count, a.cert_san_count);
    // Timings round to microsecond-from-millisecond precision.
    EXPECT_NEAR(b.timings.total().as_millis(), a.timings.total().as_millis(),
                0.01);
    EXPECT_NEAR(b.start.as_millis(), a.start.as_millis(), 0.01);
  }
  EXPECT_NEAR(restored->page_load_time().as_millis(),
              load.page_load_time().as_millis(), 0.1);
}

TEST(HarJson, RejectsNonHarDocuments) {
  EXPECT_FALSE(web::from_har_string("{}").ok());
  EXPECT_FALSE(web::from_har_string(R"({"log":{"pages":[]}})").ok());
  EXPECT_FALSE(web::from_har_string("not json at all").ok());
}

// --- JsonWriter number formatting ---

// The reference the writer must match byte for byte: the "%.15g" the
// tree-building formatter used for every HAR millisecond field.
std::string printf_millis(std::int64_t micros) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g",
                static_cast<double>(micros) / 1000.0);
  return buf;
}

// Runs every value `generate` passes to its callback through millis_value
// and printf_millis; returns how many differ, reporting the first few.
template <typename Generator>
std::size_t millis_mismatches(const Generator& generate) {
  std::string out;
  std::size_t mismatches = 0;
  generate([&](std::int64_t micros) {
    out.clear();
    util::JsonWriter writer(&out, 0);
    writer.millis_value(micros);
    const std::string expected = printf_millis(micros);
    if (out != expected && ++mismatches <= 5) {
      ADD_FAILURE() << micros << " us: writer \"" << out << "\", printf \""
                    << expected << "\"";
    }
  });
  return mismatches;
}

TEST(JsonWriter, MillisMatchesPrintfExhaustivelyNearZero) {
  EXPECT_EQ(millis_mismatches([](auto check) {
              for (std::int64_t us = -2'000'000; us < 20'000'000; ++us) {
                check(us);
              }
            }),
            0u);
}

TEST(JsonWriter, MillisMatchesPrintfAtRandomAndBoundaryValues) {
  constexpr std::int64_t kExact = 1'000'000'000'000'000;  // 10^15
  EXPECT_EQ(millis_mismatches([](auto check) {
              std::mt19937_64 rng(42);
              std::uniform_int_distribution<std::int64_t> dist(-kExact + 1,
                                                               kExact - 1);
              for (int i = 0; i < 1'000'000; ++i) check(dist(rng));
              for (std::int64_t us :
                   {kExact - 1, -(kExact - 1), kExact, -kExact, kExact + 1,
                    -(kExact + 1), std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::min()}) {
                check(us);
              }
            }),
            0u);
}

// double_value formats with std::to_chars; it must equal the "%.15g" the
// tree formatter printed for every double, not only millisecond values.
TEST(JsonWriter, DoubleMatchesPrintf) {
  std::mt19937_64 rng(7);
  std::string out;
  std::size_t mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    double value = 0;
    const std::uint64_t bits = rng();
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    out.clear();
    util::JsonWriter writer(&out, 0);
    writer.double_value(value);
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.15g", value);
    if (out != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "writer \"" << out << "\", printf \"" << expected
                    << "\"";
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

// --- HAR export: writer == tree formatter, and the corpus digest ---

// The golden corpus: perfbench's corpus-stream configuration.
dataset::CorpusOptions golden_corpus_options() {
  dataset::CorpusOptions options;
  options.site_count = 1'000;
  options.seed = 42;
  options.threads = 4;
  return options;
}

dataset::StreamingOptions golden_streaming_options() {
  dataset::StreamingOptions options;
  options.loader.policy = "chromium-ip";
  options.loader.resolver.recursive_base = util::Duration::millis(55);
  options.threads = 4;
  return options;
}

// Every measured page of the golden corpus followed by its reconstruction.
std::vector<web::PageLoad> golden_pages() {
  dataset::Corpus corpus(golden_corpus_options());
  dataset::CollectOptions collect_options;
  collect_options.loader = golden_streaming_options().loader;
  collect_options.threads = 4;
  std::vector<web::PageLoad> pages;
  dataset::collect(corpus, collect_options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     pages.push_back(load);
                   });
  model::CoalescingModel model(corpus.env());
  const auto analyses = model.analyze_batch(pages, 4);
  auto reconstructed = model.reconstruct_batch(pages, analyses, "", 4);
  pages.insert(pages.end(), reconstructed.begin(), reconstructed.end());
  return pages;
}

// Parsing builds std::map objects and dump() re-emits them in key order,
// so a fixed point proves the streamed members are in the order, and the
// values in the format, the tree formatter used.
void expect_dump_fixed_point(const web::PageLoad& load) {
  for (int indent : {0, 2}) {
    const std::string text = web::to_har_string(load, indent);
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed->dump(indent), text)
        << load.base_hostname << " at indent " << indent;
  }
}

TEST(JsonWriter, HarIsDumpFixedPointOnGoldenCorpus) {
  const auto pages = golden_pages();
  ASSERT_GT(pages.size(), 1'000u);
  for (const web::PageLoad& page : pages) expect_dump_fixed_point(page);
}

web::HarEntry edge_entry() {
  web::HarEntry entry;
  entry.resource_index = 3;
  entry.hostname = "q\"uo\\te\x01\x1f\t\n\r\b\f\x7f.example";
  entry.server_address = dns::IpAddress::v4(0xC0A80101);
  entry.dns_answer_set = {dns::IpAddress::v4(0xC0A80101),
                          dns::IpAddress::v4(0xC0A80102)};
  entry.asn = std::numeric_limits<std::uint32_t>::max();
  entry.version = web::HttpVersion::kH11;
  entry.secure = false;
  entry.mode = web::RequestMode::kCorsAnonymous;
  entry.content_type = web::ContentType::kFontWoff2;
  entry.start = util::SimTime::from_micros(1'234'567);
  entry.timings.blocked = util::Duration::micros(-1);
  entry.timings.dns = util::Duration::micros(-999);
  entry.timings.connect = util::Duration::micros(1'000);
  entry.timings.ssl = util::Duration::micros(20);
  entry.timings.send = util::Duration::micros(300);
  entry.timings.wait = util::Duration::micros(4'005);
  entry.timings.receive = util::Duration::micros(999'999'999'999'999);
  entry.new_dns_query = true;
  entry.speculative_duplicate = true;
  entry.connection_id = 0xFFFFFFFFFFFFFFFFULL;
  entry.cert_serial = 0x8000000000000001ULL;
  entry.cert_issuer = "Issuer \"CA\" \\ \x02\x1b";
  entry.cert_san_count = 0;
  entry.status_421 = true;
  return entry;
}

std::vector<web::PageLoad> edge_pages() {
  std::vector<web::PageLoad> pages;
  pages.emplace_back();  // empty page: no entries, empty hostname

  web::PageLoad page;
  page.tranco_rank = 0x8000000000000000ULL;
  page.base_hostname = "base\"\\\x03.example";
  page.success = false;
  page.extra_dns_queries = 2;
  page.extra_tls_connections = 5;
  page.entries.push_back(edge_entry());

  web::HarEntry v6 = edge_entry();
  v6.server_address = dns::IpAddress::v6(0xFEDCBA9876543210ULL);
  v6.dns_answer_set.clear();
  page.entries.push_back(v6);

  // Timings at and past the exact-formatting bound, both signs.
  web::HarEntry huge = edge_entry();
  huge.start = util::SimTime::from_micros(-1'000'000'000'000'007);
  huge.timings.blocked = util::Duration::micros(1'000'000'000'000'000);
  huge.timings.dns = util::Duration::micros(-1'000'000'000'000'000);
  huge.timings.connect = util::Duration::micros(999'999'999'999'999);
  huge.timings.ssl = util::Duration::micros(-999'999'999'999'999);
  huge.timings.send =
      util::Duration::micros(std::numeric_limits<std::int64_t>::max() / 2);
  huge.timings.wait =
      util::Duration::micros(std::numeric_limits<std::int64_t>::min() / 2);
  page.entries.push_back(huge);
  pages.push_back(page);

  // Every row of har_digest's gap table: one entry per content type, and
  // across them every version, mode, scheme, status, address family,
  // empty and non-empty answer set, and both values of each boolean.
  web::PageLoad every_row;
  every_row.tranco_rank = 17;
  every_row.base_hostname = "every-row.example";
  every_row.extra_dns_queries = 1;
  for (int i = 0; i <= static_cast<int>(web::ContentType::kOther); ++i) {
    web::HarEntry entry;
    entry.resource_index = i;
    entry.hostname = "h" + std::to_string(i) + ".every-row.example";
    entry.server_address = i % 2 == 0
                               ? dns::IpAddress::v4(0x0A000001u + i)
                               : dns::IpAddress::v6(0x100000000ULL + i);
    for (int a = 0; a < i % 4; ++a) {
      entry.dns_answer_set.push_back(dns::IpAddress::v4(0x0A000100u + a));
    }
    entry.asn = 64'500 + i;
    entry.version = static_cast<web::HttpVersion>(i % 7);
    entry.secure = i % 2 == 1;
    entry.mode = static_cast<web::RequestMode>(i % 4);
    entry.content_type = static_cast<web::ContentType>(i);
    // Millisecond values with one, two and three decimals.
    entry.start = util::SimTime::from_micros(1'001 + 250'110 * i);
    entry.timings.blocked = util::Duration::micros(1'001 * i);
    entry.timings.dns = util::Duration::micros(i % 2 == 0 ? 0 : 12'340);
    entry.timings.connect = util::Duration::micros(20'500 + i);
    entry.timings.ssl = util::Duration::micros(30'010);
    entry.timings.send = util::Duration::micros(1);
    entry.timings.wait = util::Duration::micros(45'678 * (i + 1));
    entry.timings.receive = util::Duration::micros(999);
    entry.new_dns_query = i % 2 == 0;
    entry.new_tls_connection = i / 2 % 2 == 0;
    entry.speculative_duplicate = i / 4 % 2 == 1;
    entry.connection_id = 100 + i / 3;
    entry.cert_serial = 7'000 + i;
    entry.cert_issuer = i % 3 == 0 ? "" : "Issuer " + std::to_string(i);
    entry.cert_san_count = i == 5 ? (std::int64_t{1} << 40) : i - 1;
    entry.status_421 = i / 3 % 2 == 1;
    every_row.entries.push_back(std::move(entry));
  }
  pages.push_back(every_row);
  return pages;
}

TEST(JsonWriter, HarIsDumpFixedPointOnEdgePages) {
  for (const web::PageLoad& page : edge_pages()) expect_dump_fixed_point(page);
  // The edge values really reach the text in their signed int64 form.
  const std::string text = web::to_har_string(edge_pages()[1], 0);
  EXPECT_NE(text.find("\"certSerial\":-9223372036854775807"),
            std::string::npos);
  EXPECT_NE(text.find("\"serverAddress\":\"2001:db8::fedcba9876543210\""),
            std::string::npos);
  EXPECT_NE(text.find("\"blocked\":1000000000000,"), std::string::npos);
  EXPECT_NE(text.find("\"send\":4.61168601842739e+15,"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

// Every millisecond value of `entry` lies below 10^15 us, where the export
// writes it exactly; past that it keeps "%.15g"'s 15 digits.
bool exported_exactly(const web::HarEntry& entry) {
  constexpr std::int64_t kExact = 1'000'000'000'000'000;
  const web::PhaseTimings& t = entry.timings;
  for (std::int64_t us :
       {entry.start.micros(), t.total().count_micros(),
        t.blocked.count_micros(), t.dns.count_micros(),
        t.connect.count_micros(), t.ssl.count_micros(), t.send.count_micros(),
        t.wait.count_micros(), t.receive.count_micros()}) {
    if (us <= -kExact || us >= kExact) return false;
  }
  return true;
}

// Importing an exported HAR gives back a page that exports to the same
// text: every field reads back as the value written, and each millisecond
// value rounds to the microsecond it came from. Entries whose values the
// export cannot write exactly are checked for the weaker property: one
// import makes the text a fixed point.
TEST(HarJson, ImportInvertsExport) {
  std::vector<web::PageLoad> pages;
  for (const web::PageLoad& page : edge_pages()) {
    web::PageLoad exact = page;
    std::erase_if(exact.entries, [](const web::HarEntry& entry) {
      return !exported_exactly(entry);
    });
    pages.push_back(exact);
    if (exact.entries.size() != page.entries.size()) {
      const std::string text = web::to_har_string(page);
      auto once = web::from_har_string(text);
      ASSERT_TRUE(once.ok()) << once.error().message;
      const std::string fixed = web::to_har_string(*once);
      auto twice = web::from_har_string(fixed);
      ASSERT_TRUE(twice.ok()) << twice.error().message;
      EXPECT_EQ(web::to_har_string(*twice), fixed) << page.base_hostname;
    }
  }
  const std::vector<web::PageLoad> golden = golden_pages();
  for (std::size_t i = 0; i < golden.size(); i += 37) {
    pages.push_back(golden[i]);
  }
  for (const web::PageLoad& page : pages) {
    const std::string text = web::to_har_string(page);
    auto imported = web::from_har_string(text);
    ASSERT_TRUE(imported.ok()) << imported.error().message;
    EXPECT_EQ(web::to_har_string(*imported), text) << page.base_hostname;
  }
}

// The corpus-stream reference digests at seed 42; the same values perfbench
// prints on its "reference:" line. They pin the exported text byte for byte.
TEST(HarDigest, GoldenCorpusDigestsArePinned) {
  dataset::Corpus corpus(golden_corpus_options());
  auto stats = dataset::run_materialized(corpus, golden_streaming_options());
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats->pages, 642u);
  EXPECT_EQ(stats->measured_digest, 0xf640fae39a020704ULL);
  EXPECT_EQ(stats->reconstructed_digest, 0xa56c015e4ba3192cULL);
}

// har_digest folds the text as it is written; it must equal the byte loop
// over the rendered text. The fold splits the state at its low byte, so
// every page is checked at seeds covering all 256 low bytes, each under
// random high bits.
TEST(HarDigest, IsFnvChainedOverTheIndentedText) {
  std::vector<web::PageLoad> pages = edge_pages();
  // Enum values past the last enumerator, which the export writes as "?".
  web::PageLoad unnamed = pages[2];
  for (web::HarEntry& entry : unnamed.entries) {
    entry.version = static_cast<web::HttpVersion>(7 + entry.resource_index);
    entry.mode = static_cast<web::RequestMode>(4 + entry.resource_index);
    entry.content_type =
        static_cast<web::ContentType>(13 + entry.resource_index);
  }
  pages.push_back(unnamed);
  const std::vector<web::PageLoad> golden = golden_pages();
  for (std::size_t i = 0; i < golden.size(); i += 37) {
    pages.push_back(golden[i]);
  }
  std::mt19937_64 rng(17);
  for (const web::PageLoad& page : pages) {
    const std::string text = web::to_har_string(page);
    for (std::uint64_t low = 0; low < 256; ++low) {
      const std::uint64_t seed = (rng() & ~std::uint64_t{0xff}) | low;
      ASSERT_EQ(web::har_digest(page, seed), util::fnv1a64(text, seed))
          << page.base_hostname << " at seed " << seed;
    }
  }
}

// Every field the HAR export carries must reach the digest. The one field
// exempt is the address family of dns_answer_set members: the export
// writes answers as bare values (from_har_json reads them back as v4), and
// generated corpora never put a v6 address in an answer set.
TEST(HarDigest, EveryExportedFieldChangesTheDigest) {
  web::PageLoad base = edge_pages()[1];
  const std::uint64_t reference = web::har_digest(base, 0);
  using Mutation = std::function<void(web::PageLoad&)>;
  auto entry = [](std::function<void(web::HarEntry&)> edit) -> Mutation {
    return [edit](web::PageLoad& page) { edit(page.entries.front()); };
  };
  const std::vector<std::pair<const char*, Mutation>> mutations = {
      {"tranco_rank", [](web::PageLoad& p) { p.tranco_rank += 1; }},
      {"base_hostname", [](web::PageLoad& p) { p.base_hostname += "x"; }},
      {"success", [](web::PageLoad& p) { p.success = !p.success; }},
      {"extra_dns_queries", [](web::PageLoad& p) { p.extra_dns_queries += 1; }},
      {"extra_tls_connections",
       [](web::PageLoad& p) { p.extra_tls_connections += 1; }},
      {"entries.size", [](web::PageLoad& p) { p.entries.pop_back(); }},
      {"resource_index",
       entry([](web::HarEntry& e) { e.resource_index += 1; })},
      {"hostname", entry([](web::HarEntry& e) { e.hostname += "x"; })},
      {"server_address.value",
       entry([](web::HarEntry& e) { e.server_address.value += 1; })},
      {"server_address.family", entry([](web::HarEntry& e) {
         e.server_address.family = dns::Family::kV6;
       })},
      {"dns_answer_set.value",
       entry([](web::HarEntry& e) { e.dns_answer_set[0].value += 1; })},
      {"dns_answer_set.size",
       entry([](web::HarEntry& e) { e.dns_answer_set.pop_back(); })},
      {"asn", entry([](web::HarEntry& e) { e.asn -= 1; })},
      {"version",
       entry([](web::HarEntry& e) { e.version = web::HttpVersion::kH2; })},
      {"secure", entry([](web::HarEntry& e) { e.secure = !e.secure; })},
      {"mode",
       entry([](web::HarEntry& e) { e.mode = web::RequestMode::kFetchApi; })},
      {"content_type", entry([](web::HarEntry& e) {
         e.content_type = web::ContentType::kCss;
       })},
      {"start", entry([](web::HarEntry& e) {
         e.start = e.start + util::Duration::micros(1);
       })},
      {"timings.blocked", entry([](web::HarEntry& e) {
         e.timings.blocked += util::Duration::micros(1);
       })},
      {"timings.dns", entry([](web::HarEntry& e) {
         e.timings.dns += util::Duration::micros(1);
       })},
      {"timings.connect", entry([](web::HarEntry& e) {
         e.timings.connect += util::Duration::micros(1);
       })},
      {"timings.ssl", entry([](web::HarEntry& e) {
         e.timings.ssl += util::Duration::micros(1);
       })},
      {"timings.send", entry([](web::HarEntry& e) {
         e.timings.send += util::Duration::micros(1);
       })},
      {"timings.wait", entry([](web::HarEntry& e) {
         e.timings.wait += util::Duration::micros(1);
       })},
      {"timings.receive", entry([](web::HarEntry& e) {
         e.timings.receive += util::Duration::micros(1);
       })},
      {"new_dns_query",
       entry([](web::HarEntry& e) { e.new_dns_query = !e.new_dns_query; })},
      {"new_tls_connection", entry([](web::HarEntry& e) {
         e.new_tls_connection = !e.new_tls_connection;
       })},
      {"speculative_duplicate", entry([](web::HarEntry& e) {
         e.speculative_duplicate = !e.speculative_duplicate;
       })},
      {"connection_id", entry([](web::HarEntry& e) { e.connection_id -= 1; })},
      {"cert_serial", entry([](web::HarEntry& e) { e.cert_serial += 1; })},
      {"cert_issuer", entry([](web::HarEntry& e) { e.cert_issuer += "x"; })},
      {"cert_san_count",
       entry([](web::HarEntry& e) { e.cert_san_count += 1; })},
      {"status_421",
       entry([](web::HarEntry& e) { e.status_421 = !e.status_421; })},
  };
  for (const auto& [name, mutate] : mutations) {
    web::PageLoad changed = base;
    mutate(changed);
    EXPECT_NE(web::har_digest(changed, 0), reference) << name;
  }
}

}  // namespace
}  // namespace origin
