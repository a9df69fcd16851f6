// HTTP/2 HPACK Huffman coding (RFC 7541 §5.2 and Appendix B).
//
// The canonical code table maps each of the 256 octets plus EOS to a code of
// 5..30 bits. Encoding pads the final partial byte with the EOS prefix
// (all-ones); decoding rejects padding longer than 7 bits or not all-ones,
// as the RFC requires.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace origin::hpack {

// Number of bytes `s` occupies when Huffman-coded.
std::size_t huffman_encoded_size(std::string_view s);

// Appends the Huffman coding of `s` to `out`.
void huffman_encode(std::string_view s, origin::util::ByteWriter& out);

// Decodes a Huffman-coded string into `out`, replacing its contents and
// keeping its capacity. Errors on invalid padding or a code that decodes
// to EOS.
[[nodiscard]] origin::util::Status huffman_decode(
    std::span<const std::uint8_t> data, std::string& out);

}  // namespace origin::hpack
