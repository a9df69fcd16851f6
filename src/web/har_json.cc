#include "web/har_json.h"

namespace origin::web {

using origin::util::Json;
using origin::util::JsonKey;
using origin::util::JsonWriter;
using origin::util::make_error;
using origin::util::Result;

namespace {

origin::util::Duration millis_field(const Json& timings, const char* key) {
  return origin::util::Duration::millis(timings[key].double_or(0.0));
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

// write_har's member names. Each carries its folded run for har_digest,
// so they live here, built at compile time, rather than per call.
constexpr JsonKey kAddressV6{"addressV6"};
constexpr JsonKey kAddressValue{"addressValue"};
constexpr JsonKey kAsn{"asn"};
constexpr JsonKey kBlocked{"blocked"};
constexpr JsonKey kCertIssuer{"certIssuer"};
constexpr JsonKey kCertSanCount{"certSanCount"};
constexpr JsonKey kCertSerial{"certSerial"};
constexpr JsonKey kConnect{"connect"};
constexpr JsonKey kConnectionId{"connectionId"};
constexpr JsonKey kContent{"content"};
constexpr JsonKey kCreator{"creator"};
constexpr JsonKey kDns{"dns"};
constexpr JsonKey kDnsAnswerSet{"dnsAnswerSet"};
constexpr JsonKey kEntries{"entries"};
constexpr JsonKey kExtraDnsQueries{"_extraDnsQueries"};
constexpr JsonKey kExtraTlsConnections{"_extraTlsConnections"};
constexpr JsonKey kHttpVersion{"httpVersion"};
constexpr JsonKey kId{"id"};
constexpr JsonKey kLog{"log"};
constexpr JsonKey kMethod{"method"};
constexpr JsonKey kMimeType{"mimeType"};
constexpr JsonKey kMode{"mode"};
constexpr JsonKey kName{"name"};
constexpr JsonKey kNewDnsQuery{"newDnsQuery"};
constexpr JsonKey kNewTlsConnection{"newTlsConnection"};
constexpr JsonKey kOnLoad{"onLoad"};
constexpr JsonKey kOrigin{"_origin"};
constexpr JsonKey kPageTimings{"pageTimings"};
constexpr JsonKey kPages{"pages"};
constexpr JsonKey kReceive{"receive"};
constexpr JsonKey kRequest{"request"};
constexpr JsonKey kResourceIndex{"resourceIndex"};
constexpr JsonKey kResponse{"response"};
constexpr JsonKey kSend{"send"};
constexpr JsonKey kServerAddress{"serverAddress"};
constexpr JsonKey kServerIpAddress{"serverIPAddress"};
constexpr JsonKey kSpeculativeDuplicate{"speculativeDuplicate"};
constexpr JsonKey kSsl{"ssl"};
constexpr JsonKey kStartedDateTime{"startedDateTime"};
constexpr JsonKey kStatus{"status"};
constexpr JsonKey kSuccess{"_success"};
constexpr JsonKey kTime{"time"};
constexpr JsonKey kTimings{"timings"};
constexpr JsonKey kTitle{"title"};
constexpr JsonKey kTrancoRank{"_trancoRank"};
constexpr JsonKey kUrl{"url"};
constexpr JsonKey kVersion{"version"};
constexpr JsonKey kWait{"wait"};

// Members are written in alphabetical key order at every level (the order
// a parsed Json::Object dumps in), which is what keeps the digest of the
// exported text unchanged from the tree-building exporter it replaced.
void write_timings(const PhaseTimings& timings, JsonWriter& w) {
  w.begin_object();
  w.key(kBlocked).millis_value(timings.blocked.count_micros());
  w.key(kConnect).millis_value(timings.connect.count_micros());
  w.key(kDns).millis_value(timings.dns.count_micros());
  w.key(kReceive).millis_value(timings.receive.count_micros());
  w.key(kSend).millis_value(timings.send.count_micros());
  w.key(kSsl).millis_value(timings.ssl.count_micros());
  w.key(kWait).millis_value(timings.wait.count_micros());
  w.end_object();
}

void write_entry(const HarEntry& entry, JsonWriter& w) {
  char address_buffer[dns::IpAddress::kMaxTextSize];
  const std::string_view address =
      entry.server_address.format(address_buffer);

  w.begin_object();
  // Reproduction-specific fields travel in an extension block, as HAR
  // custom fields conventionally do (leading underscore).
  w.key(kOrigin).begin_object();
  w.key(kAddressV6).bool_value(entry.server_address.family ==
                               dns::Family::kV6);
  w.key(kAddressValue)
      .int_value(static_cast<std::int64_t>(entry.server_address.value));
  w.key(kAsn).int_value(entry.asn);
  w.key(kCertIssuer).string_value(entry.cert_issuer);
  w.key(kCertSanCount).int_value(entry.cert_san_count);
  w.key(kCertSerial).int_value(static_cast<std::int64_t>(entry.cert_serial));
  w.key(kConnectionId)
      .int_value(static_cast<std::int64_t>(entry.connection_id));
  w.key(kDnsAnswerSet).begin_array();
  for (const auto& answer : entry.dns_answer_set) {
    w.int_value(static_cast<std::int64_t>(answer.value));
  }
  w.end_array();
  w.key(kMode).string_value(request_mode_name(entry.mode));
  w.key(kNewDnsQuery).bool_value(entry.new_dns_query);
  w.key(kNewTlsConnection).bool_value(entry.new_tls_connection);
  w.key(kResourceIndex).int_value(entry.resource_index);
  w.key(kServerAddress).string_value(address);
  w.key(kSpeculativeDuplicate).bool_value(entry.speculative_duplicate);
  w.end_object();

  w.key(kRequest).begin_object();
  w.key(kHttpVersion).string_value(http_version_name(entry.version));
  w.key(kMethod).string_value("GET");
  w.key(kUrl).string_value(
      {entry.secure ? "https://" : "http://", entry.hostname, "/"});
  w.end_object();

  w.key(kResponse).begin_object();
  w.key(kContent).begin_object();
  w.key(kMimeType).string_value(content_type_name(entry.content_type));
  w.end_object();
  w.key(kStatus).int_value(entry.status_421 ? 421 : 200);
  w.end_object();

  w.key(kServerIpAddress).string_value(address);
  w.key(kStartedDateTime).millis_value(entry.start.micros());
  w.key(kTime).millis_value(entry.timings.total().count_micros());
  w.key(kTimings);
  write_timings(entry.timings, w);
  w.end_object();
}

void write_page(const PageLoad& load, JsonWriter& w) {
  w.begin_object();
  w.key(kLog).begin_object();

  w.key(kCreator).begin_object();
  w.key(kName).string_value("respect-the-origin-repro");
  w.key(kVersion).string_value("1.0");
  w.end_object();

  w.key(kEntries).begin_array();
  for (const HarEntry& entry : load.entries) write_entry(entry, w);
  w.end_array();

  w.key(kPages).begin_array();
  w.begin_object();
  w.key(kExtraDnsQueries)
      .int_value(static_cast<std::int64_t>(load.extra_dns_queries));
  w.key(kExtraTlsConnections)
      .int_value(static_cast<std::int64_t>(load.extra_tls_connections));
  w.key(kSuccess).bool_value(load.success);
  w.key(kTrancoRank).int_value(static_cast<std::int64_t>(load.tranco_rank));
  w.key(kId).string_value(load.base_hostname);
  w.key(kPageTimings).begin_object();
  w.key(kOnLoad).millis_value(load.page_load_time().count_micros());
  w.end_object();
  w.key(kTitle).string_value({"https://", load.base_hostname, "/"});
  w.end_object();
  w.end_array();

  w.key(kVersion).string_value("1.2");
  w.end_object();
  w.end_object();
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
  std::uint64_t digest = seed;
  JsonWriter w(&digest, 2);
  write_page(load, w);
  return digest;
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
    entry.start = origin::util::SimTime::from_micros(origin::util::clamp_to_int64(
        item["startedDateTime"].double_or(0.0) * 1000.0));
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
    entry.cert_san_count = static_cast<int>(extension["certSanCount"].int_or(0));
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
