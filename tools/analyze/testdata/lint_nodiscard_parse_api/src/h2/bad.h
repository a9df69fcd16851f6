// Fixture: a header declaration returning util::Result without
// [[nodiscard]] must be rejected (nodiscard-parse-api). Never compiled.
#pragma once

#include <cstdint>
#include <span>

#include "util/result.h"

namespace origin::h2 {

struct FrameHeader {
  std::uint32_t length = 0;
};

util::Result<FrameHeader> parse_frame_header(std::span<const std::uint8_t> bytes);

}  // namespace origin::h2
