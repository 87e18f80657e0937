// Small open-addressing map from node id to a cached value.
//
// The medium's hot-path memoization (pairwise path loss, each in-flight
// frame's received power per receiver) used to live in dense per-node
// arrays — O(N) per frame and O(N^2) overall, which is exactly what a
// city-scale node count cannot afford. With spatial culling a node only ever
// asks about its ~tens of radio neighbours, so the caches are sparse: this
// map stores just the keys actually queried, with open addressing and
// power-of-two sizing so a lookup is one or two cache probes and never
// hashes through std::unordered_map machinery.
//
// clear() is O(1): every entry is stamped with the map's generation when it
// is written, and an entry from an older generation counts as empty. Within
// one generation entries only ever turn from empty to live, so a linear probe
// for a live key never crosses an empty slot, and a probe that reaches one
// has proven the key absent. Capacity is kept across clears (the maps are
// pooled with the medium's frame slots and nodes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nomc::phy {

template <typename Value>
class NodeMap {
 public:
  /// The value for `key` and whether it was just inserted. A new value is
  /// value-initialized; the caller fills it. Pointers stay valid until the
  /// next insertion.
  [[nodiscard]] std::pair<Value*, bool> try_emplace(std::uint32_t key) {
    if (table_.empty()) grow();
    for (;;) {
      std::size_t i = index_of(key);
      for (;;) {
        Entry& e = table_[i];
        if (e.stamp == generation_) {
          if (e.key == key) return {&e.value, false};
        } else {
          if (size_ * 10 >= table_.size() * 7) break;  // over load factor: grow
          ++size_;
          e = Entry{key, generation_, Value{}};
          return {&e.value, true};
        }
        i = (i + 1) & (table_.size() - 1);
      }
      grow();
    }
  }

  /// Drop every entry in O(1), keeping the allocated capacity.
  void clear() {
    size_ = 0;
    if (++generation_ != 0) return;
    // The stamp wrapped: wipe once so no ancient entry can alias.
    for (Entry& e : table_) e.stamp = 0;
    generation_ = 1;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint32_t key = 0;
    std::uint32_t stamp = 0;  ///< generation the entry was written in; 0 = never
    Value value{};
  };

  [[nodiscard]] std::size_t index_of(std::uint32_t key) const {
    // Fibonacci hashing spreads the dense, sequential node ids.
    const std::uint64_t h = std::uint64_t{key} * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 32) & (table_.size() - 1);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.stamp != generation_) continue;
      std::size_t i = index_of(e.key);
      while (table_[i].stamp == generation_) i = (i + 1) & (table_.size() - 1);
      table_[i] = e;
    }
  }

  std::vector<Entry> table_;
  std::size_t size_ = 0;
  std::uint32_t generation_ = 1;
};

}  // namespace nomc::phy
