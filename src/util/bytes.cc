#include "util/bytes.h"

namespace origin::util {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u24(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::raw(std::string_view s) {
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::raw(const void* data, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::patch_u24(std::size_t offset, std::uint32_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 16);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 2) = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u8(std::size_t offset, std::uint8_t v) {
  buf_.at(offset) = v;
}

bool ByteReader::require(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!require(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  if (!require(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u24() {
  if (!require(3)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

std::uint32_t ByteReader::u32() {
  if (!require(4)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t hi = u32();
  std::uint64_t lo = u32();
  return hi << 32 | lo;
}

std::span<const std::uint8_t> ByteReader::raw(std::size_t n) {
  if (!require(n)) return {};
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str(std::size_t n) {
  auto s = raw(n);
  return std::string(s.begin(), s.end());
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Bytes from_string(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string_view as_string_view(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return {};
  // analyze:allow(no-reinterpret-cast): char may alias any object type, so
  // this view is well-defined.
  return std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size());
}

}  // namespace origin::util
