// Open-addressing hash containers for the interned-ID hot path (§4 model
// replay, passive-measurement merge, corpus bookkeeping).
//
// Design points, chosen for the pipeline's workload:
//   * power-of-two capacity, linear probing, max load factor 3/4;
//   * tombstone-free: there is no erase(). Every hot-path use is
//     append-only within a phase and clear()ed between phases, which keeps
//     probe chains short without deletion markers;
//   * clear() keeps capacity, so a scratch map reused across batch
//     iterations allocates nothing in steady state (the AnalysisScratch
//     contract, DESIGN.md §10);
//   * iteration order is the table order — a pure function of the
//     insertion sequence and the deterministic util::Hash functors, i.e.
//     identical across runs and platforms, unlike std::unordered_map whose
//     order is implementation-defined. But the insertion sequence itself
//     varies with thread count, so anything feeding report or
//     serialization output must copy the entries out and sort them first
//     (or stay on std::map — see the waivers of the analyzer's
//     no-string-keyed-tree rule). The det-unordered-iter analyze pass
//     enforces this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace origin::util {

template <typename Key, typename Value, typename HashFn = Hash<Key>>
class FlatMap {
  // hash == 0 marks an empty slot; normalize_hash never returns 0.
  struct Slot {
    std::uint64_t hash = 0;
    Key key{};
    Value value{};
  };

 public:
  FlatMap() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }

  // Keeps capacity: a cleared map re-fills without allocating.
  void clear() {
    for (Slot& slot : slots_) slot.hash = 0;
    size_ = 0;
  }

  void reserve(std::size_t count) {
    std::size_t cap = kMinCapacity;
    while (count * 4 > cap * 3) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  // Heterogeneous lookup: any K hashable by HashFn and ==-comparable to
  // Key works (e.g. string_view against a std::string key).
  template <typename K>
  Value* find(const K& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  template <typename K>
  const Value* find(const K& key) const {
    if (slots_.empty()) return nullptr;
    const std::uint64_t hash = normalize_hash(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.hash == 0) return nullptr;
      if (slot.hash == hash && slot.key == key) return &slot.value;
    }
  }

  template <typename K>
  bool contains(const K& key) const {
    return find(key) != nullptr;
  }

  // Inserts {key, value} if the key is absent; returns the slot value and
  // whether the insert happened (existing values are never overwritten,
  // matching std::map::emplace).
  std::pair<Value*, bool> emplace(Key key, Value value) {
    grow_if_needed();
    const std::uint64_t hash = normalize_hash(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.hash == 0) {
        slot.hash = hash;
        slot.key = std::move(key);
        slot.value = std::move(value);
        ++size_;
        return {&slot.value, true};
      }
      if (slot.hash == hash && slot.key == key) return {&slot.value, false};
    }
  }

  Value& operator[](const Key& key) { return *emplace(key, Value{}).first; }

  class const_iterator {
   public:
    struct Item {
      const Key& first;
      const Value& second;
    };

    const_iterator(const Slot* slot, const Slot* end) : slot_(slot), end_(end) {
      skip_empty();
    }
    Item operator*() const { return {slot_->key, slot_->value}; }
    const_iterator& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return slot_ == other.slot_;
    }
    bool operator!=(const const_iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    void skip_empty() {
      while (slot_ != end_ && slot_->hash == 0) ++slot_;
    }
    const Slot* slot_;
    const Slot* end_;
  };

  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  template <typename K>
  static std::uint64_t normalize_hash(const K& key) {
    const std::uint64_t hash = HashFn{}(key);
    return hash == 0 ? 1 : hash;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_capacity);
    const std::size_t mask = new_capacity - 1;
    // Stored hashes are reused, so rehashing never touches the keys; the
    // old table order drives the reinsertion order, keeping the final
    // iteration order a deterministic function of the insertion sequence.
    for (Slot& slot : old) {
      if (slot.hash == 0) continue;
      for (std::size_t i = slot.hash & mask;; i = (i + 1) & mask) {
        if (slots_[i].hash == 0) {
          slots_[i] = std::move(slot);
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

namespace internal {
struct Unit {};
}  // namespace internal

template <typename Key, typename HashFn = Hash<Key>>
class FlatSet {
 public:
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(std::size_t count) { map_.reserve(count); }

  // True if the key was newly inserted.
  bool insert(Key key) {
    return map_.emplace(std::move(key), internal::Unit{}).second;
  }

  template <typename K>
  bool contains(const K& key) const {
    return map_.contains(key);
  }

  // Visits keys in table order — fine for commutative folds, never for
  // output (sort the keys first there).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    // analyze:allow(det-unordered-iter): own storage; callers sort to emit
    for (const auto& item : map_) fn(item.first);
  }

 private:
  FlatMap<Key, internal::Unit, HashFn> map_;
};

}  // namespace origin::util
