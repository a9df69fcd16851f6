// Web resource model: what a page is made of.
//
// Content types mirror Table 5 of the paper; request mechanics that matter
// to coalescing are carried per resource: the `crossorigin=anonymous`
// attribute and fetch()/XMLHttpRequest usage both prevented coalescing in
// the paper's deployment (§5.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace origin::web {

enum class ContentType : std::uint8_t {
  kHtml,
  kJavascript,       // application/javascript
  kTextJavascript,   // text/javascript (obsolete; Google still serves it)
  kXJavascript,      // application/x-javascript
  kCss,
  kJpeg,
  kPng,
  kGif,
  kWebp,
  kFontWoff2,
  kJson,
  kPlain,
  kOther,
};

// Each name function returns "?" for a value that names no enumerator.
constexpr const char* content_type_name(ContentType type) {
  switch (type) {
    case ContentType::kHtml: return "text/html";
    case ContentType::kJavascript: return "application/javascript";
    case ContentType::kTextJavascript: return "text/javascript";
    case ContentType::kXJavascript: return "application/x-javascript";
    case ContentType::kCss: return "text/css";
    case ContentType::kJpeg: return "image/jpeg";
    case ContentType::kPng: return "image/png";
    case ContentType::kGif: return "image/gif";
    case ContentType::kWebp: return "image/webp";
    case ContentType::kFontWoff2: return "font/woff2";
    case ContentType::kJson: return "application/json";
    case ContentType::kPlain: return "text/plain";
    case ContentType::kOther: return "other";
  }
  return "?";
}

// How the document initiates the subrequest; affects coalescing (§5.3).
enum class RequestMode : std::uint8_t {
  kNavigation,      // the base page itself
  kSubresource,     // plain <script>/<img>/<link>
  kCorsAnonymous,   // crossorigin="anonymous" — separate connection pool key
  kFetchApi,        // fetch()/XMLHttpRequest — ditto
};

constexpr const char* request_mode_name(RequestMode mode) {
  switch (mode) {
    case RequestMode::kNavigation: return "navigation";
    case RequestMode::kSubresource: return "subresource";
    case RequestMode::kCorsAnonymous: return "cors-anonymous";
    case RequestMode::kFetchApi: return "fetch-api";
  }
  return "?";
}

enum class HttpVersion : std::uint8_t {
  kH09,
  kH10,
  kH11,
  kH2,
  kH3,
  kQuic,
  kUnknown,
};

constexpr const char* http_version_name(HttpVersion version) {
  switch (version) {
    case HttpVersion::kH09: return "HTTP/0.9";
    case HttpVersion::kH10: return "HTTP/1.0";
    case HttpVersion::kH11: return "HTTP/1.1";
    case HttpVersion::kH2: return "HTTP/2";
    case HttpVersion::kH3: return "H3-Q050";
    case HttpVersion::kQuic: return "QUIC";
    case HttpVersion::kUnknown: return "N/A";
  }
  return "?";
}

struct Resource {
  std::string hostname;
  std::string path;
  ContentType content_type = ContentType::kOther;
  std::size_t size_bytes = 10 * 1024;
  bool secure = true;  // https
  RequestMode mode = RequestMode::kSubresource;
  HttpVersion version = HttpVersion::kH2;
  // What the HAR records. Usually == version, but a slice of requests ends
  // up with no recorded protocol (Table 3's "N/A" rows) even though the
  // wire used the host's real protocol.
  HttpVersion recorded_version = HttpVersion::kH2;

  // Index of the resource whose parsing discovered this one (-1 for the
  // base document), plus how long the parser worked before dispatching the
  // request. These two fields define the dependency DAG that the waterfall
  // reconstruction must preserve (§4.1: "CPU time beforehand ... is
  // unmodified").
  int parent = -1;
  double discovery_cpu_ms = 0.0;

  std::string url() const { return (secure ? "https://" : "http://") + hostname + path; }
};

struct Webpage {
  std::uint64_t tranco_rank = 0;
  std::string base_hostname;
  std::vector<Resource> resources;  // [0] is the base document

  std::size_t subresource_count() const {
    return resources.empty() ? 0 : resources.size() - 1;
  }
};

}  // namespace origin::web
