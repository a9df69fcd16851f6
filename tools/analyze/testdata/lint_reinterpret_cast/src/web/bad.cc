// Fixture: a raw reinterpret_cast must be rejected (no-reinterpret-cast);
// bytes become text through util::as_string_view. Never compiled.
#include <cstdint>
#include <string_view>
#include <vector>

namespace origin::web {

std::string_view body_text(const std::vector<std::uint8_t>& body) {
  return std::string_view(reinterpret_cast<const char*>(body.data()),
                          body.size());
}

}  // namespace origin::web
