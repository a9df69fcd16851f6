#include "dns/record.h"

#include <charconv>
#include <cstring>

namespace origin::dns {

std::string_view IpAddress::format(
    std::span<char, kMaxTextSize> buffer) const {
  char* const begin = buffer.data();
  char* const end = begin + buffer.size();
  char* p = begin;
  if (family == Family::kV4) {
    const auto v = static_cast<std::uint32_t>(value);
    for (int shift = 24; shift >= 0; shift -= 8) {
      if (shift != 24) *p++ = '.';
      p = std::to_chars(p, end, (v >> shift) & 0xff).ptr;
    }
  } else {
    constexpr std::string_view kPrefix = "2001:db8::";
    std::memcpy(p, kPrefix.data(), kPrefix.size());
    p = std::to_chars(p + kPrefix.size(), end, value, 16).ptr;
  }
  return {begin, static_cast<std::size_t>(p - begin)};
}

std::string IpAddress::to_string() const {
  char buffer[kMaxTextSize];
  return std::string(format(buffer));
}

const char* record_type_name(RecordType type) {
  switch (type) {
    case RecordType::kA: return "A";
    case RecordType::kAAAA: return "AAAA";
    case RecordType::kCNAME: return "CNAME";
  }
  return "?";
}

}  // namespace origin::dns
