#include "h2/origin_set.h"

#include <algorithm>

#include "util/hot_path.h"
#include "util/strings.h"

namespace origin::h2 {

std::string Origin::serialize() const {
  std::string out = scheme + "://" + host;
  const bool default_port =
      (scheme == "https" && port == 443) || (scheme == "http" && port == 80);
  if (!default_port) {
    out += ':';
    out += std::to_string(port);
  }
  return out;
}

std::optional<Origin> Origin::parse(std::string_view ascii) {
  auto scheme_end = ascii.find("://");
  if (scheme_end == std::string_view::npos) return std::nullopt;
  Origin o;
  o.scheme = origin::util::to_lower(ascii.substr(0, scheme_end));
  if (o.scheme != "https" && o.scheme != "http") return std::nullopt;
  std::string_view rest = ascii.substr(scheme_end + 3);
  if (rest.empty()) return std::nullopt;
  auto colon = rest.rfind(':');
  if (colon != std::string_view::npos) {
    std::string_view port_str = rest.substr(colon + 1);
    if (port_str.empty()) return std::nullopt;
    std::uint32_t port = 0;
    for (char c : port_str) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
      if (port > 65535) return std::nullopt;
    }
    o.port = static_cast<std::uint16_t>(port);
    rest = rest.substr(0, colon);
  } else {
    o.port = o.scheme == "https" ? 443 : 80;
  }
  if (rest.empty() || rest.find('/') != std::string_view::npos) {
    return std::nullopt;
  }
  o.host = origin::util::to_lower(rest);
  return o;
}

OriginSet::OriginSet(Origin initial) : initial_(std::move(initial)) {
  members_.push_back(initial_);
}

void OriginSet::apply_origin_frame(const std::vector<std::string>& entries) {
  explicit_ = true;
  members_.clear();
  // The initial origin stays reachable on this connection whether or not
  // the server repeats it in the frame.
  members_.push_back(initial_);
  for (const auto& entry : entries) {
    auto parsed = Origin::parse(entry);
    if (!parsed) continue;  // ignore invalid entries individually
    if (std::find(members_.begin(), members_.end(), *parsed) == members_.end()) {
      members_.push_back(std::move(*parsed));
    }
  }
}

ORIGIN_HOT bool OriginSet::contains(const Origin& candidate) const {
  return std::find(members_.begin(), members_.end(), candidate) != members_.end();
}

ORIGIN_HOT bool OriginSet::contains(std::string_view host) const {
  // Member hosts are stored lowercase; comparing case-insensitively here
  // avoids materializing a lowercased copy of the candidate on the frame
  // inspection path.
  for (const Origin& m : members_) {
    if (m.scheme == "https" && m.port == 443 &&
        origin::util::iequals_ascii(m.host, host)) {
      return true;
    }
  }
  return false;
}

}  // namespace origin::h2
