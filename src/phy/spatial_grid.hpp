// Uniform hash grid over the sources of in-flight frames.
//
// The medium's interference queries used to walk every active frame — O(N)
// per CCA read, O(N^2) per simulated second at city scale. The grid buckets
// active frames by their transmitter's cell so a query only visits the
// cells that intersect the receiver's interference disc (the receive-floor
// radius, see docs/scaling.md). Cell size is the receive-floor radius of a
// nominal transmitter, so a query touches a small constant number of cells.
//
// The grid only helps when it prunes: a disc whose bounding box spans more
// cells than are occupied (paper and crowded scale, where every frame sits
// in one cell) would probe mostly-empty cells, so for_each_in_disc then
// declines, and the medium walks its own begin-ordered live list instead.
//
// Determinism: the grid's only job is to produce a candidate *set*; every
// caller either reduces it with an order-independent operation (boolean
// queries) or sorts candidates by frame insertion sequence before any
// floating-point accumulation (Medium::accumulate). Cell iteration order is
// a fixed row-major walk of the disc's bounding box.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/geometry.hpp"

namespace nomc::phy {

class SpatialFrameGrid {
 public:
  /// Drops all content and sets the cell edge length.
  void reset(double cell_size_m) {
    cells_.clear();
    spare_.clear();
    cell_size_ = cell_size_m > 0.0 ? cell_size_m : 1.0;
  }

  [[nodiscard]] double cell_size() const { return cell_size_; }

  void insert(std::uint32_t slot, Vec2 pos) {
    std::vector<std::uint32_t>& cell = cells_[key_of(pos)];
    if (cell.capacity() == 0 && !spare_.empty()) {
      cell = std::move(spare_.back());  // recycle a retired cell's storage
      spare_.pop_back();
    }
    cell.push_back(slot);
  }

  void remove(std::uint32_t slot, Vec2 pos) {
    const auto it = cells_.find(key_of(pos));
    if (it == cells_.end()) return;
    std::vector<std::uint32_t>& cell = it->second;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      if (cell[i] == slot) {
        cell[i] = cell.back();
        cell.pop_back();
        break;
      }
    }
    if (cell.empty()) {
      spare_.push_back(std::move(cell));
      spare_.back().clear();
      cells_.erase(it);
    }
  }

  /// Calls `fn(slot)` for every frame bucketed in a cell that intersects the
  /// axis-aligned bounding box of the disc (center, radius) and returns
  /// true — but only when that box spans no more cells than are occupied.
  /// Otherwise the grid cannot prune (paper and crowded scale: every frame
  /// in one cell), so it visits nothing and returns false, and the caller
  /// walks its own list. Callers apply the exact per-frame distance test;
  /// the grid only prunes cells.
  template <typename Fn>
  bool for_each_in_disc(Vec2 center, double radius, Fn&& fn) const {
    const std::int64_t cx0 = cell_of(center.x - radius);
    const std::int64_t cx1 = cell_of(center.x + radius);
    const std::int64_t cy0 = cell_of(center.y - radius);
    const std::int64_t cy1 = cell_of(center.y + radius);
    const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
    const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
    // Divide instead of multiplying: the product may overflow for a huge disc.
    if (span_x > cells_.size() || span_y > cells_.size() / span_x) return false;
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        const auto it = cells_.find(make_key(cx, cy));
        if (it == cells_.end()) continue;
        for (const std::uint32_t slot : it->second) fn(slot);
      }
    }
    return true;
  }

 private:
  [[nodiscard]] std::int64_t cell_of(double v) const {
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  }
  [[nodiscard]] static std::uint64_t make_key(std::int64_t cx, std::int64_t cy) {
    // Interleave the low 32 bits of each coordinate; deployments fit well
    // inside +/- 2^31 cells, so the truncation can never collide.
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32 |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::uint64_t key_of(Vec2 pos) const {
    return make_key(cell_of(pos.x), cell_of(pos.y));
  }

  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  std::vector<std::vector<std::uint32_t>> spare_;  ///< retired cells' storage, reused
  double cell_size_ = 1.0;
};

}  // namespace nomc::phy
