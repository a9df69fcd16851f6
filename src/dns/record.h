// DNS record model. IPv4/IPv6 addresses are opaque identifiers in the
// simulation; what matters to coalescing is equality between the address a
// connection was opened on and addresses returned for later queries
// (paper §2.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace origin::dns {

enum class Family : std::uint8_t { kV4, kV6 };

struct IpAddress {
  Family family = Family::kV4;
  std::uint64_t value = 0;

  static IpAddress v4(std::uint32_t value) {
    return IpAddress{Family::kV4, value};
  }
  static IpAddress v6(std::uint64_t value) {
    return IpAddress{Family::kV6, value};
  }

  // Longest text form: "2001:db8::" and 16 hex digits.
  static constexpr std::size_t kMaxTextSize = 26;
  // Writes the text form into `buffer` and returns a view of it: to_string()
  // without the allocation, for per-entry HAR export.
  std::string_view format(std::span<char, kMaxTextSize> buffer) const;
  std::string to_string() const;
  bool operator==(const IpAddress&) const = default;
  auto operator<=>(const IpAddress&) const = default;
};

enum class RecordType : std::uint8_t { kA, kAAAA, kCNAME };

const char* record_type_name(RecordType type);

struct ResourceRecord {
  std::string name;
  RecordType type = RecordType::kA;
  std::uint32_t ttl_seconds = 300;
  IpAddress address;   // A / AAAA
  std::string target;  // CNAME

  bool operator==(const ResourceRecord&) const = default;
};

}  // namespace origin::dns

namespace origin::util {

// util::FlatSet<dns::IpAddress> support (ideal-IP coalescing tracks seen
// server addresses per page, DESIGN.md §10).
template <>
struct Hash<origin::dns::IpAddress, void> {
  constexpr std::uint64_t operator()(const origin::dns::IpAddress& a) const {
    return mix64(a.value ^
                 (static_cast<std::uint64_t>(a.family) << 63));
  }
};

}  // namespace origin::util
