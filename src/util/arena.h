// Chunked bump arena and the arena-backed column it exists for.
//
// The columnar corpus store (dataset/corpus.h) keeps millions of int64
// timestamps and uint8 enums per shard. Growing them through std::vector
// doubles-and-copies whole columns; at a million rows that is both the
// dominant allocator traffic and a 2x transient RSS spike per grow. An
// ArenaColumn instead appends into fixed-size chunks carved from an Arena:
// append is O(1) with no element ever moving, a shard's worth of chunks is
// recycled across shards via clear() (capacity is retained, the
// steady-state-allocation-free property the ORIGIN_HOT append loops claim),
// and serialization walks the chunk list with bulk memcpy.
//
// Neither type is thread-safe; one TimelineColumns (and thus one arena)
// belongs to the serial shard-append loop of the streaming pipeline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace origin::util {

// Bump allocator over large uniform chunks. Allocations are never freed
// individually; reset() makes every chunk's space reusable without
// returning memory to the system. Alignment is the chunk allocation's
// natural alignment (max_align_t) for the first block and the caller's
// element size thereafter, which suffices because columns only ever carve
// whole chunks.
class Arena {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 18;  // 256 KiB

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns kChunkBytes of storage. Reuses a recycled chunk when one is
  // available; otherwise allocates a fresh one (the amortized-growth branch
  // the hot-path waivers below reference).
  std::uint8_t* allocate_chunk() {
    if (next_free_ < chunks_.size()) {
      return chunks_[next_free_++].get();
    }
    // analyze:allow(hot-transitive): arena chunk growth is the amortized (one
    // allocation per 256 KiB of column data) cold branch; chunks are
    // retained across reset() so warm shards never reach it.
    chunks_.push_back(std::make_unique<std::uint8_t[]>(kChunkBytes));
    ++next_free_;
    return chunks_.back().get();
  }

  // Makes all chunks reusable. No memory is released: a pipeline that
  // resets between shards reaches a fixed chunk population sized by its
  // largest shard and allocates nothing afterwards.
  void reset() { next_free_ = 0; }

  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t reserved_bytes() const { return chunks_.size() * kChunkBytes; }

 private:
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::size_t next_free_ = 0;
};

// Append-only typed column whose storage is arena chunks. Elements must be
// trivially copyable (the columnar store only holds ids, timestamps, enums
// and packed flags). Indexing is chunk-relative: shift + mask, no division.
template <typename T>
class ArenaColumn {
  static_assert(std::is_trivially_copyable_v<T>,
                "columns hold raw POD rows only");

 public:
  static constexpr std::size_t kPerChunk = Arena::kChunkBytes / sizeof(T);

  explicit ArenaColumn(Arena& arena) : arena_(&arena) {}

  void put(T value) {
    const std::size_t slot = size_ % kPerChunk;
    if (slot == 0) grow();
    chunks_[size_ / kPerChunk][slot] = value;
    ++size_;
  }

  T operator[](std::size_t i) const {
    ORIGIN_CHECK(i < size_, "ArenaColumn index out of range");
    return chunks_[i / kPerChunk][i % kPerChunk];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Drops the rows but keeps the chunk directory; the arena owns the
  // storage, so the next fill cycle re-carves the same chunks.
  void clear() {
    size_ = 0;
    chunks_.clear();
  }

  // Filled chunk spans in order, for bulk serialization. The last span is
  // partial when size_ is not a chunk multiple.
  template <typename Fn>
  void for_each_span(Fn&& fn) const {
    for (std::size_t begin = 0; begin < size_; begin += kPerChunk) {
      const std::size_t count = std::min(kPerChunk, size_ - begin);
      fn(std::span<const T>(chunks_[begin / kPerChunk], count));
    }
  }

 private:
  void grow() {
    // analyze:allow(hot-transitive): the chunk directory grows by
    // one pointer per 256 KiB of column data — amortized to zero on warm
    // shards because clear() keeps the arena's chunk population.
    // analyze:allow(no-reinterpret-cast): typed view over a whole fresh arena
    // chunk; size and alignment are guaranteed by Arena::allocate_chunk.
    chunks_.push_back(reinterpret_cast<T*>(arena_->allocate_chunk()));
  }

  Arena* arena_;
  std::vector<T*> chunks_;
  std::size_t size_ = 0;
};

}  // namespace origin::util
