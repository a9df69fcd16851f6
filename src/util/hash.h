// Default hash functors for the open-addressing containers in
// util/flat_map.h. All hashes are deterministic across processes and
// platforms (FNV-1a / splitmix64, no per-run seeding): container iteration
// order is a pure function of the insertion sequence, which the pipeline's
// bit-identical-output contract (DESIGN.md §8, §10) depends on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/fnv.h"

namespace origin::util {

// splitmix64 finalizer. Power-of-two-masked tables index with the low bits
// only, so integer keys must have every input bit diffused into them.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Primary template: specialize for domain types (see dns/record.h for
// dns::IpAddress), or rely on the built-ins below for integers, enums,
// strings, and pairs.
template <typename T, typename Enable = void>
struct Hash;

template <typename T>
struct Hash<T, std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>>> {
  constexpr std::uint64_t operator()(T value) const {
    return mix64(static_cast<std::uint64_t>(value));
  }
};

template <>
struct Hash<std::string_view, void> {
  using is_transparent = void;
  constexpr std::uint64_t operator()(std::string_view s) const {
    return fnv1a64(s);
  }
};

// Accepts string_view so string-keyed containers support heterogeneous
// lookup without constructing a temporary std::string.
template <>
struct Hash<std::string, void> {
  using is_transparent = void;
  constexpr std::uint64_t operator()(std::string_view s) const {
    return fnv1a64(s);
  }
};

template <typename A, typename B>
struct Hash<std::pair<A, B>, void> {
  constexpr std::uint64_t operator()(const std::pair<A, B>& p) const {
    return fnv1a64_mix(Hash<A>{}(p.first), Hash<B>{}(p.second));
  }
};

// --- CRC-64/XZ (reflected ECMA-182) ---------------------------------------
//
// The integrity checksum behind the durable storage layer (DESIGN.md §15):
// OCS1 shard footers, OCM1 manifest records, and the per-shard content
// digests in BENCH_corpus.json. Unlike the FNV/splitmix hashes above it is
// a true CRC — any single-bit flip (and any burst error up to 64 bits) in a
// checked span is guaranteed to change the value, which is the property the
// torn/corrupt-shard detection relies on. check("123456789") ==
// 0x995DC9BBDF1939FA. Chaining: crc64(b, crc64(a)) == crc64(a + b).

namespace detail {

// t[0] is the classic byte table; t[k][i] is the CRC register after byte i
// followed by k zero bytes, which lets crc64() fold eight bytes per step
// (slicing-by-8) with the same result as eight crc64_update calls.
struct Crc64Tables {
  std::uint64_t t[8][256];
  constexpr Crc64Tables() : t{} {
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;  // reflected
    for (int i = 0; i < 256; ++i) {
      std::uint64_t crc = static_cast<std::uint64_t>(i);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (int i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};
inline constexpr Crc64Tables kCrc64Tables{};

}  // namespace detail

constexpr std::uint64_t crc64_update(std::uint64_t crc, std::uint8_t byte) {
  return detail::kCrc64Tables.t[0][(crc ^ byte) & 0xff] ^ (crc >> 8);
}

inline std::uint64_t crc64(std::span<const std::uint8_t> data,
                           std::uint64_t seed = 0) {
  const auto& t = detail::kCrc64Tables.t;
  std::uint64_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // The register is reflected: the first byte of the block sits in its
    // low 8 bits, so the word is assembled little-endian on every host.
    const std::uint64_t word =
        crc ^ (static_cast<std::uint64_t>(p[0]) |
               static_cast<std::uint64_t>(p[1]) << 8 |
               static_cast<std::uint64_t>(p[2]) << 16 |
               static_cast<std::uint64_t>(p[3]) << 24 |
               static_cast<std::uint64_t>(p[4]) << 32 |
               static_cast<std::uint64_t>(p[5]) << 40 |
               static_cast<std::uint64_t>(p[6]) << 48 |
               static_cast<std::uint64_t>(p[7]) << 56);
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) crc = crc64_update(crc, *p);
  return ~crc;
}

constexpr std::uint64_t crc64(std::string_view data, std::uint64_t seed = 0) {
  std::uint64_t crc = ~seed;
  for (const char c : data) {
    crc = crc64_update(crc, static_cast<std::uint8_t>(c));
  }
  return ~crc;
}

static_assert(crc64("123456789") == 0x995DC9BBDF1939FAULL,
              "CRC-64/XZ check vector");

}  // namespace origin::util
