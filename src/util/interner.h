// Append-only, thread-safe string interner: string_view -> uint32 SymbolId.
//
// This is the symbol table behind the interned-ID hot path (DESIGN.md §10).
// The pipeline compares coalescing-group keys and hostnames millions of
// times per corpus replay; interning turns each comparison from a heap
// string compare into an integer compare, the same move HPACK's
// static/dynamic table indexing makes on the wire (RFC 7541).
//
// Concurrency contract:
//   * intern() is serialized by a mutex and may be called from any thread;
//   * lookup(), name(), and size() are lock-free and safe concurrently
//     with intern(): the probe table and the id->view directory are
//     published with release stores and read with acquire loads, and
//     superseded tables are retired (not freed) until destruction, so a
//     reader holding a stale snapshot only ever sees a subset. size_ is
//     stored last, so an id is visible to lookup() exactly when size()
//     covers it;
//   * IDs are assigned sequentially in intern() call order. Deterministic
//     outputs at any thread count therefore require the PR 2 discipline:
//     intern everything in a serial prepass (construction, batch-API entry)
//     and keep the parallel region to lookups of already-present symbols
//     (which intern() also satisfies without taking the insert path).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace origin::util {

using SymbolId = std::uint32_t;
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

class Interner {
 public:
  Interner();
  ~Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Returns the id for `name`, inserting it on first sight. The returned
  // string_view from name() stays valid for the interner's lifetime.
  SymbolId intern(std::string_view name) ORIGIN_EXCLUDES(mu_);

  // Lock-free; kInvalidSymbol if the string has never been interned.
  SymbolId lookup(std::string_view name) const;

  // Lock-free; `id` must come from this interner.
  std::string_view name(SymbolId id) const;

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Probe table slot word: (hash's upper 32 bits) << 32 | (id + 1).
  // 0 means empty; id + 1 keeps the word nonzero even for fingerprint 0.
  struct Table {
    std::size_t mask = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  // id -> string_view directory: fixed-size chunks behind a growable
  // pointer array, so already-published views never move.
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  struct Chunk {
    std::string_view views[kChunkSize];
  };
  struct Directory {
    std::size_t capacity = 0;
    std::unique_ptr<std::atomic<Chunk*>[]> chunks;
  };

  SymbolId probe(const Table& table, std::string_view name,
                 std::uint64_t hash) const;
  void grow_table() ORIGIN_REQUIRES(mu_);
  void publish_view(SymbolId id, std::string_view view) ORIGIN_REQUIRES(mu_);

  mutable Mutex mu_;
  std::atomic<Table*> table_;
  std::atomic<Directory*> directory_;
  std::atomic<std::size_t> size_{0};

  // Owning storage. Append-only, pruned only at destruction; readers may
  // hold pointers into any generation.
  std::deque<std::string> storage_ ORIGIN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Table>> tables_ ORIGIN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Directory>> directories_ ORIGIN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Chunk>> chunks_ ORIGIN_GUARDED_BY(mu_);
};

}  // namespace origin::util
