// FNV-1a 64-bit hashing. Used for deterministic identifiers (simulated
// certificate signatures, connection ids) and the corpus page digest — NOT
// cryptographic.
//
// One FNV-1a step is h = (h ^ byte) * P. The XOR touches only the low byte
// of the state, and a multiple of 256 times P is still a multiple of 256,
// so the high part of the seed rides through a run of bytes `s` touched by
// nothing but the multiplications:
//
//   fnv1a64(s, h) == (h & ~0xff) * P^|s| + fnv1a64(s, h & 0xff)  (mod 2^64)
//
// A string known in advance can therefore be folded into any state in one
// step from P^|s| and a 256-entry table of fnv1a64(s, l): `FnvRun`.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string_view>

namespace origin::util {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a64(std::string_view data,
                                std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t fnv1a64_mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = kFnvOffset;
  for (int i = 0; i < 8; ++i) {
    h ^= (a >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    h ^= (b >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// A fixed byte string folded for one-step FNV-1a: apply(h) equals
// fnv1a64(text, h) for every state h. The text is the concatenation of the
// constructor's parts. About 2 KB, and building one costs 256 hashes of the
// text, so build each once (constexpr, or one static), never per use.
class FnvRun {
 public:
  constexpr FnvRun() = default;  // the empty text: apply(h) == h
  constexpr explicit FnvRun(std::initializer_list<std::string_view> parts) {
    for (std::string_view part : parts) {
      for (std::size_t i = 0; i < part.size(); ++i) power_ *= kFnvPrime;
      for (std::uint64_t& state : folded_) state = fnv1a64(part, state);
    }
  }
  constexpr explicit FnvRun(std::string_view text) : FnvRun({text}) {}

  constexpr std::uint64_t apply(std::uint64_t h) const {
    return (h & ~std::uint64_t{0xff}) * power_ + folded_[h & 0xff];
  }

 private:
  static constexpr std::array<std::uint64_t, 256> low_bytes() {
    std::array<std::uint64_t, 256> out{};
    for (std::size_t l = 0; l < out.size(); ++l) out[l] = l;
    return out;
  }

  std::uint64_t power_ = 1;  // P^|text|
  std::array<std::uint64_t, 256> folded_ = low_bytes();  // fnv1a64(text, l)
};

}  // namespace origin::util
