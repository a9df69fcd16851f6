// Byte-buffer primitives used by the HPACK and HTTP/2 codecs.
//
// All multi-byte integers on the wire are big-endian (network order), per
// RFC 9113 §4.1. ByteWriter grows an internal vector; ByteReader is a
// non-owning bounds-checked cursor over a span of bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace origin::util {

using Bytes = std::vector<std::uint8_t>;

// Appends big-endian integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);  // low 24 bits
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(std::span<const std::uint8_t> bytes);
  void raw(std::string_view s);
  // Appends n raw bytes from untyped memory — the bulk column-payload path
  // of the corpus snapshot writer, which serializes typed arena chunks
  // without a per-element cast.
  void raw(const void* data, std::size_t n);

  // Overwrites previously written bytes (e.g. to back-patch a length field).
  void patch_u24(std::size_t offset, std::uint32_t v);
  void patch_u8(std::size_t offset, std::uint8_t v);

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Bounds-checked big-endian reader. Reads never throw; failed reads set a
// sticky error flag and return zero values, so codecs can do one `ok()`
// check after a parse sequence.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u24();
  std::uint32_t u32();
  std::uint64_t u64();
  // Reads exactly n bytes; on underflow sets the error flag and returns an
  // empty span.
  std::span<const std::uint8_t> raw(std::size_t n);
  std::string str(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::uint8_t peek() const { return pos_ < data_.size() ? data_[pos_] : 0; }

 private:
  bool require(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::string to_hex(std::span<const std::uint8_t> bytes);
Bytes from_string(std::string_view s);

// Views a byte span as text without copying. This is the single audited
// uint8_t* → char* conversion in the repo; parser code must use it instead
// of a raw reinterpret_cast (enforced by origin_analyze's lint pass).
std::string_view as_string_view(std::span<const std::uint8_t> bytes);

}  // namespace origin::util
