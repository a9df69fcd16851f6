// Fixture: a C-style integer cast in a parser module must be rejected
// (no-c-style-int-cast); narrowing is a searchable static_cast. Never
// compiled.
#include <cstdint>

namespace origin::hpack {

std::uint8_t low_octet(std::uint32_t value) {
  return (std::uint8_t)value;
}

}  // namespace origin::hpack
