#include "util/interner.h"

#include "util/check.h"
#include "util/fnv.h"

namespace origin::util {

namespace {
constexpr std::size_t kInitialTableCapacity = 64;
constexpr std::size_t kInitialDirectoryCapacity = 8;
constexpr std::uint64_t kFingerprintMask = 0xFFFFFFFF00000000ULL;
}  // namespace

Interner::Interner() {
  auto table = std::make_unique<Table>();
  table->mask = kInitialTableCapacity - 1;
  table->slots =
      std::make_unique<std::atomic<std::uint64_t>[]>(kInitialTableCapacity);
  for (std::size_t i = 0; i < kInitialTableCapacity; ++i) {
    table->slots[i].store(0, std::memory_order_relaxed);
  }
  table_.store(table.get(), std::memory_order_release);
  tables_.push_back(std::move(table));

  auto directory = std::make_unique<Directory>();
  directory->capacity = kInitialDirectoryCapacity;
  directory->chunks =
      std::make_unique<std::atomic<Chunk*>[]>(kInitialDirectoryCapacity);
  for (std::size_t i = 0; i < kInitialDirectoryCapacity; ++i) {
    directory->chunks[i].store(nullptr, std::memory_order_relaxed);
  }
  directory_.store(directory.get(), std::memory_order_release);
  directories_.push_back(std::move(directory));
}

SymbolId Interner::probe(const Table& table, std::string_view name,
                         std::uint64_t hash) const {
  const std::uint64_t fingerprint = hash & kFingerprintMask;
  for (std::size_t i = hash & table.mask;; i = (i + 1) & table.mask) {
    const std::uint64_t word =
        table.slots[i].load(std::memory_order_acquire);
    if (word == 0) return kInvalidSymbol;
    if ((word & kFingerprintMask) == fingerprint) {
      const SymbolId id =
          static_cast<SymbolId>((word & 0xFFFFFFFFULL) - 1);
      // An id becomes visible when size_ covers it; intern() stores size_
      // after the slot word, so skip a slot whose insert is in flight.
      if (id >= size_.load(std::memory_order_acquire)) continue;
      // The fingerprint is only the hash's upper half; confirm against the
      // stored bytes (the view was published before the slot word, so the
      // acquire load above makes it visible).
      if (this->name(id) == name) return id;
    }
  }
}

SymbolId Interner::lookup(std::string_view name) const {
  const std::uint64_t hash = fnv1a64(name);
  const Table* table = table_.load(std::memory_order_acquire);
  return probe(*table, name, hash);
}

std::string_view Interner::name(SymbolId id) const {
  ORIGIN_CHECK(id < size_.load(std::memory_order_acquire),
               "Interner::name: id out of range");
  const Directory* directory = directory_.load(std::memory_order_acquire);
  const Chunk* chunk =
      directory->chunks[id >> kChunkShift].load(std::memory_order_acquire);
  return chunk->views[id & (kChunkSize - 1)];
}

SymbolId Interner::intern(std::string_view name) {
  const std::uint64_t hash = fnv1a64(name);

  // Fast path: already present, no lock. This is what keeps parallel
  // regions cheap after the serial intern prepass.
  {
    const Table* table = table_.load(std::memory_order_acquire);
    const SymbolId id = probe(*table, name, hash);
    if (id != kInvalidSymbol) return id;
  }

  MutexLock lock(&mu_);
  Table* table = table_.load(std::memory_order_relaxed);
  {
    // Re-probe under the lock: another thread may have inserted it between
    // the fast path and lock acquisition.
    const SymbolId id = probe(*table, name, hash);
    if (id != kInvalidSymbol) return id;
  }

  const std::size_t count = size_.load(std::memory_order_relaxed);
  ORIGIN_CHECK(count + 1 < kInvalidSymbol,
               "Interner: symbol space exhausted");
  const SymbolId id = static_cast<SymbolId>(count);

  storage_.push_back(std::string(name));
  publish_view(id, storage_.back());

  // Keep load factor <= 3/4 before placing the new slot.
  if ((count + 1) * 4 > (table->mask + 1) * 3) {
    grow_table();
    table = table_.load(std::memory_order_relaxed);
  }

  const std::uint64_t word = (hash & kFingerprintMask) |
                             (static_cast<std::uint64_t>(id) + 1);
  for (std::size_t i = hash & table->mask;; i = (i + 1) & table->mask) {
    if (table->slots[i].load(std::memory_order_relaxed) == 0) {
      // Release: a reader that sees this word also sees the view published
      // above.
      table->slots[i].store(word, std::memory_order_release);
      break;
    }
  }
  // Publish the id last: a reader that sees size() > id also sees its view
  // and its slot word in the current table, so lookup(name(id)) finds it.
  size_.store(count + 1, std::memory_order_release);
  return id;
}

void Interner::grow_table() {
  Table* old_table = table_.load(std::memory_order_relaxed);
  const std::size_t new_capacity = (old_table->mask + 1) * 2;
  auto bigger = std::make_unique<Table>();
  bigger->mask = new_capacity - 1;
  bigger->slots = std::make_unique<std::atomic<std::uint64_t>[]>(new_capacity);
  for (std::size_t i = 0; i < new_capacity; ++i) {
    bigger->slots[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i <= old_table->mask; ++i) {
    const std::uint64_t word =
        old_table->slots[i].load(std::memory_order_relaxed);
    if (word == 0) continue;
    const SymbolId id = static_cast<SymbolId>((word & 0xFFFFFFFFULL) - 1);
    const std::uint64_t hash = fnv1a64(this->name(id));
    for (std::size_t j = hash & bigger->mask;; j = (j + 1) & bigger->mask) {
      if (bigger->slots[j].load(std::memory_order_relaxed) == 0) {
        bigger->slots[j].store(word, std::memory_order_relaxed);
        break;
      }
    }
  }
  // Publish, then retire: concurrent readers may keep probing the old
  // table (they see a consistent subset); it stays allocated until ~this.
  table_.store(bigger.get(), std::memory_order_release);
  tables_.push_back(std::move(bigger));
}

void Interner::publish_view(SymbolId id, std::string_view view) {
  Directory* directory = directory_.load(std::memory_order_relaxed);
  const std::size_t chunk_index = id >> kChunkShift;
  if (chunk_index >= directory->capacity) {
    auto bigger = std::make_unique<Directory>();
    bigger->capacity = directory->capacity * 2;
    bigger->chunks =
        std::make_unique<std::atomic<Chunk*>[]>(bigger->capacity);
    for (std::size_t i = 0; i < bigger->capacity; ++i) {
      Chunk* chunk = i < directory->capacity
                         ? directory->chunks[i].load(std::memory_order_relaxed)
                         : nullptr;
      bigger->chunks[i].store(chunk, std::memory_order_relaxed);
    }
    directory_.store(bigger.get(), std::memory_order_release);
    directory = bigger.get();
    directories_.push_back(std::move(bigger));
  }
  Chunk* chunk = directory->chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
    directory->chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk->views[id & (kChunkSize - 1)] = view;
}

}  // namespace origin::util
