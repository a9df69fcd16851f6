#include "web/har_json.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/fnv.h"

namespace origin::web {

using origin::util::FnvRun;
using origin::util::Json;
using origin::util::JsonWriter;
using origin::util::make_error;
using origin::util::Result;

namespace {

// Imported times saturate at ±10^17 us (about 3,170 years), so the sums a
// page carries (an entry's time and end, the page's onLoad: at most nine
// terms) stay inside int64.
constexpr std::int64_t kMaxImportedMicros = 100'000'000'000'000'000;

// A millisecond field as integer microseconds, rounded to the nearest one:
// the export writes micros / 1000 exactly below 10^15 us, but the product
// ms * 1000.0 can fall just short of the integer (1.001 gives
// 1000.9999999999999).
std::int64_t micros_field(const Json& value) {
  return std::clamp(
      origin::util::clamp_to_int64(std::round(value.double_or(0.0) * 1000.0)),
      -kMaxImportedMicros, kMaxImportedMicros);
}

origin::util::Duration millis_field(const Json& timings, const char* key) {
  return origin::util::Duration::micros(micros_field(timings[key]));
}

HttpVersion version_from_name(const std::string& name) {
  for (auto version :
       {HttpVersion::kH09, HttpVersion::kH10, HttpVersion::kH11,
        HttpVersion::kH2, HttpVersion::kH3, HttpVersion::kQuic,
        HttpVersion::kUnknown}) {
    if (name == http_version_name(version)) return version;
  }
  return HttpVersion::kUnknown;
}

ContentType content_type_from_name(const std::string& name) {
  for (auto type :
       {ContentType::kHtml, ContentType::kJavascript,
        ContentType::kTextJavascript, ContentType::kXJavascript,
        ContentType::kCss, ContentType::kJpeg, ContentType::kPng,
        ContentType::kGif, ContentType::kWebp, ContentType::kFontWoff2,
        ContentType::kJson, ContentType::kPlain, ContentType::kOther}) {
    if (name == content_type_name(type)) return type;
  }
  return ContentType::kOther;
}

RequestMode mode_from_name(const std::string& name) {
  for (auto mode :
       {RequestMode::kNavigation, RequestMode::kSubresource,
        RequestMode::kCorsAnonymous, RequestMode::kFetchApi}) {
    if (name == request_mode_name(mode)) return mode;
  }
  return RequestMode::kSubresource;
}

// Fixed strings write_page writes, shared with the gap table below.
constexpr std::string_view kCreatorName = "respect-the-origin-repro";
constexpr std::string_view kCreatorVersion = "1.0";
constexpr std::string_view kMethod = "GET";
constexpr std::string_view kHarVersion = "1.2";

// Members are written in alphabetical key order at every level (the order
// a parsed Json::Object dumps in), which is what keeps the digest of the
// exported text unchanged from the tree-building exporter it replaced.
void write_timings(const PhaseTimings& timings, JsonWriter& w) {
  w.begin_object();
  w.key("blocked").millis_value(timings.blocked.count_micros());
  w.key("connect").millis_value(timings.connect.count_micros());
  w.key("dns").millis_value(timings.dns.count_micros());
  w.key("receive").millis_value(timings.receive.count_micros());
  w.key("send").millis_value(timings.send.count_micros());
  w.key("ssl").millis_value(timings.ssl.count_micros());
  w.key("wait").millis_value(timings.wait.count_micros());
  w.end_object();
}

void write_entry(const HarEntry& entry, JsonWriter& w) {
  char address_buffer[dns::IpAddress::kMaxTextSize];
  const std::string_view address =
      entry.server_address.format(address_buffer);

  w.begin_object();
  // Reproduction-specific fields travel in an extension block, as HAR
  // custom fields conventionally do (leading underscore).
  w.key("_origin").begin_object();
  w.key("addressV6").bool_value(entry.server_address.family ==
                                dns::Family::kV6);
  w.key("addressValue")
      .int_value(static_cast<std::int64_t>(entry.server_address.value));
  w.key("asn").int_value(entry.asn);
  w.key("certIssuer").string_value(entry.cert_issuer);
  w.key("certSanCount").int_value(entry.cert_san_count);
  w.key("certSerial").int_value(static_cast<std::int64_t>(entry.cert_serial));
  w.key("connectionId")
      .int_value(static_cast<std::int64_t>(entry.connection_id));
  w.key("dnsAnswerSet").begin_array();
  for (const auto& answer : entry.dns_answer_set) {
    w.int_value(static_cast<std::int64_t>(answer.value));
  }
  w.end_array();
  w.key("mode").string_value(request_mode_name(entry.mode));
  w.key("newDnsQuery").bool_value(entry.new_dns_query);
  w.key("newTlsConnection").bool_value(entry.new_tls_connection);
  w.key("resourceIndex").int_value(entry.resource_index);
  w.key("serverAddress").string_value(address);
  w.key("speculativeDuplicate").bool_value(entry.speculative_duplicate);
  w.end_object();

  w.key("request").begin_object();
  w.key("httpVersion").string_value(http_version_name(entry.version));
  w.key("method").string_value(kMethod);
  w.key("url").string_value(
      {entry.secure ? "https://" : "http://", entry.hostname, "/"});
  w.end_object();

  w.key("response").begin_object();
  w.key("content").begin_object();
  w.key("mimeType").string_value(content_type_name(entry.content_type));
  w.end_object();
  w.key("status").int_value(entry.status_421 ? 421 : 200);
  w.end_object();

  w.key("serverIPAddress").string_value(address);
  w.key("startedDateTime").millis_value(entry.start.micros());
  w.key("time").millis_value(entry.timings.total().count_micros());
  w.key("timings");
  write_timings(entry.timings, w);
  w.end_object();
}

void write_page(const PageLoad& load, JsonWriter& w) {
  w.begin_object();
  w.key("log").begin_object();

  w.key("creator").begin_object();
  w.key("name").string_value(kCreatorName);
  w.key("version").string_value(kCreatorVersion);
  w.end_object();

  w.key("entries").begin_array();
  for (const HarEntry& entry : load.entries) write_entry(entry, w);
  w.end_array();

  w.key("pages").begin_array();
  w.begin_object();
  w.key("_extraDnsQueries")
      .int_value(static_cast<std::int64_t>(load.extra_dns_queries));
  w.key("_extraTlsConnections")
      .int_value(static_cast<std::int64_t>(load.extra_tls_connections));
  w.key("_success").bool_value(load.success);
  w.key("_trancoRank").int_value(static_cast<std::int64_t>(load.tranco_rank));
  w.key("id").string_value(load.base_hostname);
  w.key("pageTimings").begin_object();
  w.key("onLoad").millis_value(load.page_load_time().count_micros());
  w.end_object();
  w.key("title").string_value({"https://", load.base_hostname, "/"});
  w.end_object();
  w.end_array();

  w.key("version").string_value(kHarVersion);
  w.end_object();
  w.end_object();
}

// --- har_digest: write_page's indent-2 text as a table of gaps ---
//
// A gap is all the fixed text between two variable values: line breaks,
// indentation, commas, brackets, quotes, member names, and the fixed-choice
// values inside it (booleans, mode, httpVersion, mimeType, status, the URL
// scheme). A gap folds in one FnvRun step, or one step per choice when it
// holds several, each choice picking its row by value; only the variable
// values (integers, milliseconds, hostnames, issuers, addresses) take the
// FNV byte loop, formatted by the util/json.h functions JsonWriter uses.
// The rows below are a second description of write_page's layout, so
// write_page through JsonWriter's text output stays the reference:
// HarDigest.IsFnvChainedOverTheIndentedText (json_har_test) and
// fuzz_har_json's property 5 check this fold against fnv1a64 of that text.
// Every row is about 2 KB and built at compile time.

// The text of a row, assembled in JsonWriter's indent-2 layout, where the
// members of the root object sit at depth 1.
class Gap {
 public:
  constexpr Gap& text(std::string_view piece) {
    for (char c : piece) text_[size_++] = c;
    return *this;
  }
  // The line break and indentation at `depth`.
  constexpr Gap& line(int depth) {
    text("\n");
    for (int i = 0; i < depth; ++i) text("  ");
    return *this;
  }
  // The first member of a container: its line, then `"name": `.
  constexpr Gap& first_key(int depth, std::string_view name) {
    return line(depth).text("\"").text(name).text("\": ");
  }
  // A later member: the comma after the one before, then as first_key().
  constexpr Gap& next_key(int depth, std::string_view name) {
    return text(",").first_key(depth, name);
  }
  // The closing line of a non-empty container whose members sit at
  // depth + 1.
  constexpr Gap& closer(int depth, std::string_view bracket) {
    return line(depth).text(bracket);
  }
  constexpr std::string_view view() const { return {text_, size_}; }
  constexpr FnvRun folded() const { return FnvRun(view()); }

 private:
  char text_[256] = {};
  std::size_t size_ = 0;
};

// One row per choice: `before`, the choice's text, then `after`.
template <std::size_t N>
constexpr std::array<FnvRun, N> choice_rows(
    const Gap& before, const std::array<std::string_view, N>& choices,
    const Gap& after) {
  std::array<FnvRun, N> rows;
  for (std::size_t i = 0; i < N; ++i) {
    rows[i] = FnvRun({before.view(), choices[i], after.view()});
  }
  return rows;
}

// Indexed by a bool.
constexpr std::array<std::string_view, 2> kBools = {"false", "true"};

// How many enumerators `name` names: 0, 1, ... up to the first value it
// returns "?" for.
template <typename Enum>
constexpr std::size_t enumerator_count(const char* (*name)(Enum)) {
  std::size_t count = 0;
  while (std::string_view(name(static_cast<Enum>(count))) != "?") ++count;
  return count;
}

constexpr std::size_t kModes = enumerator_count(request_mode_name);
constexpr std::size_t kVersions = enumerator_count(http_version_name);
constexpr std::size_t kContentTypes = enumerator_count(content_type_name);
static_assert(kModes == static_cast<std::size_t>(RequestMode::kFetchApi) + 1);
static_assert(kVersions ==
              static_cast<std::size_t>(HttpVersion::kUnknown) + 1);
static_assert(kContentTypes ==
              static_cast<std::size_t>(ContentType::kOther) + 1);

// Each enumerator's name and then "?", which the name function writes for
// any other value: an enum's rows are one per enumerator (the counts above
// are checked against each enum's last enumerator), and one more.
template <std::size_t kEnumerators, typename Enum>
constexpr std::array<std::string_view, kEnumerators + 1> enumerator_names(
    const char* (*name)(Enum)) {
  std::array<std::string_view, kEnumerators + 1> names;
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = name(static_cast<Enum>(i));
  }
  return names;
}

// The row for `value`; a value past the enumerators takes the last, "?".
template <std::size_t N, typename Enum>
const FnvRun& enumerator_row(const std::array<FnvRun, N>& rows, Enum value) {
  return rows[std::min(static_cast<std::size_t>(value), N - 1)];
}

// The document up to the entries array's `[`.
constexpr Gap kPageHead = Gap()
                              .text("{")
                              .first_key(1, "log")
                              .text("{")
                              .first_key(2, "creator")
                              .text("{")
                              .first_key(3, "name")
                              .text("\"")
                              .text(kCreatorName)
                              .text("\"")
                              .next_key(3, "version")
                              .text("\"")
                              .text(kCreatorVersion)
                              .text("\"")
                              .closer(2, "}")
                              .next_key(2, "entries")
                              .text("[");
// After an entry's last value (its timings' wait), the entry's end.
constexpr Gap kEntryEnd = Gap().closer(4, "}").closer(3, "}");
// An entry's line and `{`, up to addressV6's value.
constexpr Gap kEntryHead = Gap()
                               .line(3)
                               .text("{")
                               .first_key(4, "_origin")
                               .text("{")
                               .first_key(5, "addressV6");
// After the entries array, up to _extraDnsQueries' value.
constexpr Gap kPagesHead = Gap()
                               .next_key(2, "pages")
                               .text("[")
                               .line(3)
                               .text("{")
                               .first_key(4, "_extraDnsQueries");

// [first entry][addressV6]: up to addressValue's value, from the entries
// array's `[` for the first entry and from the entry before for the rest.
constexpr std::array<FnvRun, 2> kEntryOpen[2] = {
    choice_rows(Gap(kPageHead).text(kEntryHead.view()), kBools,
                Gap().next_key(5, "addressValue")),
    choice_rows(Gap(kEntryEnd).text(",").text(kEntryHead.view()), kBools,
                Gap().next_key(5, "addressValue")),
};
constexpr FnvRun kAsn = Gap().next_key(5, "asn").folded();
constexpr FnvRun kCertIssuer =
    Gap().next_key(5, "certIssuer").text("\"").folded();
constexpr FnvRun kCertSanCount =
    Gap().text("\"").next_key(5, "certSanCount").folded();
constexpr FnvRun kCertSerial = Gap().next_key(5, "certSerial").folded();
constexpr FnvRun kConnectionId = Gap().next_key(5, "connectionId").folded();
// [has answers]: an empty array and mode's opening quote, or `[` and the
// first answer's line.
constexpr Gap kModeKey = Gap().next_key(5, "mode").text("\"");
constexpr std::array<FnvRun, 2> kAnswersOpen = {
    Gap().next_key(5, "dnsAnswerSet").text("[]").text(kModeKey.view()).folded(),
    Gap().next_key(5, "dnsAnswerSet").text("[").line(6).folded(),
};
constexpr FnvRun kAnswersNext = Gap().text(",").line(6).folded();
constexpr FnvRun kAnswersClose =
    Gap().closer(5, "]").text(kModeKey.view()).folded();
// [mode].
constexpr auto kMode =
    choice_rows(Gap(), enumerator_names<kModes>(request_mode_name),
                Gap().text("\"").next_key(5, "newDnsQuery"));
constexpr auto kNewDnsQuery =
    choice_rows(Gap(), kBools, Gap().next_key(5, "newTlsConnection"));
constexpr auto kNewTlsConnection =
    choice_rows(Gap(), kBools, Gap().next_key(5, "resourceIndex"));
constexpr FnvRun kServerAddress =
    Gap().next_key(5, "serverAddress").text("\"").folded();
constexpr auto kSpeculativeDuplicate =
    choice_rows(Gap().text("\"").next_key(5, "speculativeDuplicate"), kBools,
                Gap()
                    .closer(4, "}")
                    .next_key(4, "request")
                    .text("{")
                    .first_key(5, "httpVersion")
                    .text("\""));
// [version].
constexpr auto kHttpVersion =
    choice_rows(Gap(), enumerator_names<kVersions>(http_version_name),
                Gap()
                    .text("\"")
                    .next_key(5, "method")
                    .text("\"")
                    .text(kMethod)
                    .text("\"")
                    .next_key(5, "url")
                    .text("\""));
// [secure].
constexpr std::array<FnvRun, 2> kScheme = {FnvRun("http://"),
                                           FnvRun("https://")};
// [content type].
constexpr auto kMimeType =
    choice_rows(Gap()
                    .text("/\"")
                    .closer(4, "}")
                    .next_key(4, "response")
                    .text("{")
                    .first_key(5, "content")
                    .text("{")
                    .first_key(6, "mimeType")
                    .text("\""),
                enumerator_names<kContentTypes>(content_type_name), Gap());
// [status_421].
constexpr auto kStatus =
    choice_rows(Gap().text("\"").closer(5, "}").next_key(5, "status"),
                std::array<std::string_view, 2>{"200", "421"},
                Gap().closer(4, "}").next_key(4, "serverIPAddress").text("\""));
constexpr FnvRun kStartedDateTime =
    Gap().text("\"").next_key(4, "startedDateTime").folded();
constexpr FnvRun kTime = Gap().next_key(4, "time").folded();
constexpr FnvRun kBlocked =
    Gap().next_key(4, "timings").text("{").first_key(5, "blocked").folded();
constexpr FnvRun kConnect = Gap().next_key(5, "connect").folded();
constexpr FnvRun kDns = Gap().next_key(5, "dns").folded();
constexpr FnvRun kReceive = Gap().next_key(5, "receive").folded();
constexpr FnvRun kSend = Gap().next_key(5, "send").folded();
constexpr FnvRun kSsl = Gap().next_key(5, "ssl").folded();
constexpr FnvRun kWait = Gap().next_key(5, "wait").folded();

// Up to _extraDnsQueries' value, from the entries array's `[` when there
// are no entries and from the last entry otherwise.
constexpr FnvRun kNoEntries =
    Gap(kPageHead).text("]").text(kPagesHead.view()).folded();
constexpr FnvRun kEntriesEnd =
    Gap(kEntryEnd).closer(2, "]").text(kPagesHead.view()).folded();
constexpr FnvRun kExtraTlsConnections =
    Gap().next_key(4, "_extraTlsConnections").folded();
// [success].
constexpr auto kSuccess = choice_rows(Gap().next_key(4, "_success"), kBools,
                                      Gap().next_key(4, "_trancoRank"));
constexpr FnvRun kId = Gap().next_key(4, "id").text("\"").folded();
constexpr FnvRun kOnLoad = Gap()
                               .text("\"")
                               .next_key(4, "pageTimings")
                               .text("{")
                               .first_key(5, "onLoad")
                               .folded();
constexpr FnvRun kTitle =
    Gap().closer(4, "}").next_key(4, "title").text("\"https://").folded();
constexpr FnvRun kPageEnd = Gap()
                                .text("/\"")
                                .closer(3, "}")
                                .closer(2, "]")
                                .next_key(2, "version")
                                .text("\"")
                                .text(kHarVersion)
                                .text("\"")
                                .closer(1, "}")
                                .closer(0, "}")
                                .folded();

// The variable values, through the FNV byte loop.
std::uint64_t fold_int(std::uint64_t h, std::int64_t value) {
  util::JsonNumberBuffer buf;
  return util::fnv1a64(util::json_int_text(value, buf), h);
}

std::uint64_t fold_millis(std::uint64_t h, std::int64_t micros) {
  util::JsonNumberBuffer buf;
  return util::fnv1a64(util::json_millis_text(micros, buf), h);
}

std::uint64_t fold_escaped(std::uint64_t h, std::string_view text) {
  util::json_escape(
      text, [&h](std::string_view piece) { h = util::fnv1a64(piece, h); });
  return h;
}

// One entry, from the gap before addressValue to the value of wait.
std::uint64_t fold_entry(std::uint64_t h, const HarEntry& entry, bool first) {
  char address_buffer[dns::IpAddress::kMaxTextSize];
  const std::string_view address =
      entry.server_address.format(address_buffer);
  const bool v6 = entry.server_address.family == dns::Family::kV6;

  h = kEntryOpen[first ? 0 : 1][v6].apply(h);
  h = fold_int(h, static_cast<std::int64_t>(entry.server_address.value));
  h = fold_int(kAsn.apply(h), entry.asn);
  h = fold_escaped(kCertIssuer.apply(h), entry.cert_issuer);
  h = fold_int(kCertSanCount.apply(h), entry.cert_san_count);
  h = fold_int(kCertSerial.apply(h),
               static_cast<std::int64_t>(entry.cert_serial));
  h = fold_int(kConnectionId.apply(h),
               static_cast<std::int64_t>(entry.connection_id));
  h = kAnswersOpen[!entry.dns_answer_set.empty()].apply(h);
  for (std::size_t i = 0; i < entry.dns_answer_set.size(); ++i) {
    if (i > 0) h = kAnswersNext.apply(h);
    h = fold_int(h, static_cast<std::int64_t>(entry.dns_answer_set[i].value));
  }
  if (!entry.dns_answer_set.empty()) h = kAnswersClose.apply(h);
  h = enumerator_row(kMode, entry.mode).apply(h);
  h = kNewDnsQuery[entry.new_dns_query].apply(h);
  h = fold_int(kNewTlsConnection[entry.new_tls_connection].apply(h),
               entry.resource_index);
  h = fold_escaped(kServerAddress.apply(h), address);
  h = kSpeculativeDuplicate[entry.speculative_duplicate].apply(h);
  h = enumerator_row(kHttpVersion, entry.version).apply(h);
  h = fold_escaped(kScheme[entry.secure].apply(h), entry.hostname);
  h = enumerator_row(kMimeType, entry.content_type).apply(h);
  h = fold_escaped(kStatus[entry.status_421].apply(h), address);
  h = fold_millis(kStartedDateTime.apply(h), entry.start.micros());
  h = fold_millis(kTime.apply(h), entry.timings.total().count_micros());
  h = fold_millis(kBlocked.apply(h), entry.timings.blocked.count_micros());
  h = fold_millis(kConnect.apply(h), entry.timings.connect.count_micros());
  h = fold_millis(kDns.apply(h), entry.timings.dns.count_micros());
  h = fold_millis(kReceive.apply(h), entry.timings.receive.count_micros());
  h = fold_millis(kSend.apply(h), entry.timings.send.count_micros());
  h = fold_millis(kSsl.apply(h), entry.timings.ssl.count_micros());
  return fold_millis(kWait.apply(h), entry.timings.wait.count_micros());
}

}  // namespace

void write_har(const PageLoad& load, int indent, std::string* out) {
  JsonWriter w(out, indent);
  write_page(load, w);
}

std::string to_har_string(const PageLoad& load, int indent) {
  std::string out;
  write_har(load, indent, &out);
  return out;
}

std::uint64_t har_digest(const PageLoad& load, std::uint64_t seed) {
  std::uint64_t h = seed;
  if (load.entries.empty()) {
    h = kNoEntries.apply(h);
  } else {
    for (std::size_t i = 0; i < load.entries.size(); ++i) {
      h = fold_entry(h, load.entries[i], i == 0);
    }
    h = kEntriesEnd.apply(h);
  }
  h = fold_int(h, static_cast<std::int64_t>(load.extra_dns_queries));
  h = fold_int(kExtraTlsConnections.apply(h),
               static_cast<std::int64_t>(load.extra_tls_connections));
  h = fold_int(kSuccess[load.success].apply(h),
               static_cast<std::int64_t>(load.tranco_rank));
  h = fold_escaped(kId.apply(h), load.base_hostname);
  h = fold_millis(kOnLoad.apply(h), load.page_load_time().count_micros());
  h = fold_escaped(kTitle.apply(h), load.base_hostname);
  return kPageEnd.apply(h);
}

// Every field access below must be total: a HAR document is external input
// (the paper's corpora came from Chrome devtools), so a wrong-typed or
// missing field yields a clean parse error or a default, never a throw.
Result<PageLoad> from_har_json(const Json& har) {
  const Json& log = har["log"];
  if (!log.is_object()) return make_error("har: missing log object");
  const Json& pages = log["pages"];
  if (!pages.is_array() || pages.as_array().empty()) {
    return make_error("har: missing pages");
  }
  const Json& page = pages.as_array().front();
  if (!page.is_object()) return make_error("har: page is not an object");
  if (!page["id"].is_string()) return make_error("har: page missing id");

  PageLoad load;
  load.base_hostname = page["id"].as_string();
  load.tranco_rank = static_cast<std::uint64_t>(page["_trancoRank"].int_or(0));
  load.success = page["_success"].bool_or(true);
  load.extra_dns_queries =
      static_cast<std::size_t>(page["_extraDnsQueries"].int_or(0));
  load.extra_tls_connections =
      static_cast<std::size_t>(page["_extraTlsConnections"].int_or(0));

  const Json& entries = log["entries"];
  if (!entries.is_array()) return make_error("har: missing entries");
  for (const Json& item : entries.as_array()) {
    if (!item.is_object()) return make_error("har: entry is not an object");
    HarEntry entry;
    const Json& extension = item["_origin"];
    if (!extension.is_object()) return make_error("har: missing _origin block");
    if (!item["request"]["url"].is_string()) {
      return make_error("har: entry missing request.url");
    }
    const std::string& url = item["request"]["url"].as_string();
    entry.secure = url.rfind("https://", 0) == 0;
    const std::size_t scheme_end = url.find("://");
    if (scheme_end == std::string::npos) {
      return make_error("har: request.url has no scheme");
    }
    const std::size_t host_begin = scheme_end + 3;
    entry.hostname =
        url.substr(host_begin, url.find('/', host_begin) - host_begin);
    entry.version =
        version_from_name(item["request"]["httpVersion"].string_or(""));
    entry.status_421 = item["response"]["status"].int_or(0) == 421;
    entry.content_type = content_type_from_name(
        item["response"]["content"]["mimeType"].string_or(""));
    entry.start = origin::util::SimTime::from_micros(
        micros_field(item["startedDateTime"]));
    const Json& timings = item["timings"];
    entry.timings.blocked = millis_field(timings, "blocked");
    entry.timings.dns = millis_field(timings, "dns");
    entry.timings.connect = millis_field(timings, "connect");
    entry.timings.ssl = millis_field(timings, "ssl");
    entry.timings.send = millis_field(timings, "send");
    entry.timings.wait = millis_field(timings, "wait");
    entry.timings.receive = millis_field(timings, "receive");

    entry.resource_index = static_cast<int>(extension["resourceIndex"].int_or(0));
    entry.asn = static_cast<std::uint32_t>(extension["asn"].int_or(0));
    entry.server_address =
        extension["addressV6"].bool_or(false)
            ? dns::IpAddress::v6(
                  static_cast<std::uint64_t>(extension["addressValue"].int_or(0)))
            : dns::IpAddress::v4(
                  static_cast<std::uint32_t>(extension["addressValue"].int_or(0)));
    if (extension["dnsAnswerSet"].is_array()) {
      for (const Json& value : extension["dnsAnswerSet"].as_array()) {
        entry.dns_answer_set.push_back(
            dns::IpAddress::v4(static_cast<std::uint32_t>(value.int_or(0))));
      }
    }
    entry.mode = mode_from_name(extension["mode"].string_or(""));
    entry.new_dns_query = extension["newDnsQuery"].bool_or(false);
    entry.new_tls_connection = extension["newTlsConnection"].bool_or(false);
    entry.speculative_duplicate =
        extension["speculativeDuplicate"].bool_or(false);
    entry.connection_id =
        static_cast<std::uint64_t>(extension["connectionId"].int_or(0));
    entry.cert_serial =
        static_cast<std::uint64_t>(extension["certSerial"].int_or(0));
    entry.cert_issuer = extension["certIssuer"].string_or("");
    entry.cert_san_count = extension["certSanCount"].int_or(0);
    load.entries.push_back(std::move(entry));
  }
  return load;
}

Result<PageLoad> from_har_string(std::string_view text) {
  auto parsed = Json::parse(text);
  if (!parsed.ok()) return parsed.error();
  return from_har_json(parsed.value());
}

}  // namespace origin::web
