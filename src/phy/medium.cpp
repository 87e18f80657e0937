#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nomc::phy {

Medium::Medium(MediumConfig config)
    : config_{std::move(config)}, shadowing_{config_.shadowing_sigma_db, config_.seed} {
  if (config_.culling.enabled) {
    double cell = config_.culling.cell_size_m;
    if (cell <= 0.0) cell = influence_radius_m(Dbm{0.0});
    grid_.reset(cell);
  }
}

double Medium::influence_radius_m(Dbm tx_power) const {
  const double shadow_cap = config_.culling.shadow_cap_sigma * config_.shadowing_sigma_db;
  return config_.path_loss.distance_for_loss(Db{tx_power.value + shadow_cap - cull_floor_dbm()});
}

NodeId Medium::add_node(Vec2 position) {
  positions_.push_back(position);
  epochs_.push_back(0);
  loss_cache_.emplace_back();
  return static_cast<NodeId>(positions_.size() - 1);
}

Vec2 Medium::position(NodeId node) const { return positions_[local_index(node)]; }

void Medium::set_position(NodeId node, Vec2 position) {
  const std::size_t index = local_index(node);
  positions_[index] = position;
  // O(1) invalidation of every cached pair involving the moved node: other
  // nodes' entries snapshot this node's epoch and now fail the check; the
  // node's own map is dropped outright (capacity retained).
  ++epochs_[index];
  loss_cache_[index].clear();
  // Re-bucket the mover's in-flight frames so the spatial index keeps
  // answering from current positions.
  for (std::size_t i = 0; i < frame_slots_.size(); ++i) {
    ActiveFrame& af = frame_slots_[i];
    if (!af.live || af.frame.src != node) continue;
    if (config_.culling.enabled) {
      grid_.remove(static_cast<std::uint32_t>(i), af.src_pos);
      grid_.insert(static_cast<std::uint32_t>(i), position);
    }
    af.src_pos = position;
  }
}

double Medium::cached_loss_db(NodeId a, NodeId b) const {
  const std::size_t ai = local_index(a);
  const std::size_t bi = local_index(b);
  NodeValueMap::Entry& entry = loss_cache_[ai].find_or_insert(b);
  if (entry.key != b || entry.epoch != epochs_[bi]) {
    entry.key = b;
    entry.epoch = epochs_[bi];
    entry.value = config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value;
  }
#ifndef NDEBUG
  // Debug cross-check: a served cache hit must equal a fresh computation —
  // i.e. no stale entry survives motion invalidation. (Release builds skip
  // this; it turns every hit into a recompute.)
  assert(entry.value == config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value &&
         "stale path-loss cache entry served after node motion");
#endif
  return entry.value;
}

double Medium::cached_shadow_db(FrameId frame, NodeId rx) const {
  auto it = shadow_cache_.find(frame);
  if (it == shadow_cache_.end()) {
    NodeValueMap map;
    if (!spare_maps_.empty()) {
      map = std::move(spare_maps_.back());
      spare_maps_.pop_back();
    }
    it = shadow_cache_.emplace(frame, std::move(map)).first;
  }
  NodeValueMap::Entry& entry = it->second.find_or_insert(rx);
  if (entry.key != rx) {
    entry.key = rx;
    entry.value = shadowing_.sample(frame, rx).value;
  }
  return entry.value;
}

void Medium::add_listener(MediumListener* listener, NodeId node) {
  assert(listener != nullptr);
  assert(owns(node) && "listeners must listen at a registered node");
  listeners_.push_back({listener, node});
}

void Medium::remove_listener(MediumListener* listener) {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [listener](const ListenerEntry& e) {
                                    return e.listener == listener;
                                  }),
                   listeners_.end());
}

void Medium::notify_listeners(const Frame& frame, Vec2 src_pos, double radius, bool start) {
  // With culling on, a listener beyond the influence disc could not measure
  // the frame anyway (its RSS sits below the receive floor); skipping the
  // callback only moves where error-segment RNG draws are anchored. At paper
  // scale the disc exceeds the deployment span, so nothing is ever skipped
  // and the serial draw sequence is unchanged.
  const bool cull = config_.culling.enabled;
  const double r2 = radius * radius;
  for (const ListenerEntry& e : listeners_) {
    if (cull && distance_sq(positions_[local_index(e.node)], src_pos) > r2) continue;
    if (start) {
      e.listener->on_tx_start(frame);
    } else {
      e.listener->on_tx_end(frame);
    }
  }
}

void Medium::begin_tx(const Frame& frame) {
  assert(frame.id != 0 && "allocate the frame id through the medium");
  assert(slot_of_.find(frame.id) == slot_of_.end() && "frame id already on the air");
  const Vec2 src_pos = positions_[local_index(frame.src)];
  const double radius = influence_radius_m(frame.tx_power);
  // Notify first: listeners observe the pre-change interference set.
  notify_listeners(frame, src_pos, radius, /*start=*/true);
  std::uint32_t slot;
  if (!free_frame_slots_.empty()) {
    slot = free_frame_slots_.back();
    free_frame_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(frame_slots_.size());
    frame_slots_.emplace_back();
  }
  ActiveFrame& af = frame_slots_[slot];
  af.frame = frame;
  af.src_pos = src_pos;
  af.begin_seq = next_begin_seq_++;
  af.radius = radius;
  af.live = true;
  slot_of_.emplace(frame.id, slot);
  if (config_.culling.enabled) {
    grid_.insert(slot, af.src_pos);
    max_active_radius_ = std::max(max_active_radius_, af.radius);
  }
  ++active_count_;
}

void Medium::end_tx(FrameId id) {
  auto it = slot_of_.find(id);
  assert(it != slot_of_.end() && "end_tx for a frame that is not on the air");
  // Copy before notifying: a listener may begin a transmission, growing
  // frame_slots_ and invalidating the reference.
  const Frame frame = frame_slots_[it->second].frame;
  const Vec2 src_pos = frame_slots_[it->second].src_pos;
  const double radius = frame_slots_[it->second].radius;
  notify_listeners(frame, src_pos, radius, /*start=*/false);
  // Re-find: a listener may have started a transmission, rehashing slot_of_.
  it = slot_of_.find(id);
  assert(it != slot_of_.end());
  const std::uint32_t slot = it->second;
  ActiveFrame& af = frame_slots_[slot];
  if (config_.culling.enabled) grid_.remove(slot, af.src_pos);
  af.live = false;
  free_frame_slots_.push_back(slot);
  slot_of_.erase(it);
  --active_count_;
  if (active_count_ == 0) max_active_radius_ = 0.0;
  // Recycle the memoized draws — purely a size bound: a late query about
  // this frame (e.g. the receiver finalizing the reception) recomputes the
  // identical values from the (seed, frame, node) hash.
  const auto shadow = shadow_cache_.find(id);
  if (shadow != shadow_cache_.end()) {
    shadow->second.clear();
    spare_maps_.push_back(std::move(shadow->second));
    shadow_cache_.erase(shadow);
  }
}

Dbm Medium::rss(const Frame& frame, NodeId rx) const {
  const double loss = cached_loss_db(frame.src, rx);
  if (shadowing_.sigma_db() <= 0.0) {
    return frame.tx_power - Db{loss};
  }
  return frame.tx_power - Db{loss} + Db{cached_shadow_db(frame.id, rx)};
}

Db Medium::leak_attenuation(const Frame& f, Mhz delta, const ChannelRejection& rejection) {
  Db attenuation = rejection.attenuation(delta);
  if (f.emission != nullptr) {
    // Wideband transmitter: whatever its emission mask puts into the
    // receiver's passband arrives regardless of the receiver's filter.
    attenuation = std::min(attenuation, f.emission->attenuation(delta));
  }
  return attenuation;
}

void Medium::gather(NodeId node, bool ordered, bool force_exhaustive) const {
  scratch_.clear();
  if (config_.culling.enabled && !force_exhaustive) {
    const Vec2 at = positions_[local_index(node)];
    grid_.for_each_in_disc(at, max_active_radius_, [&](std::uint32_t slot) {
      const ActiveFrame& af = frame_slots_[slot];
      if (distance_sq(at, af.src_pos) <= af.radius * af.radius) {
        scratch_.emplace_back(af.begin_seq, slot);
      }
    });
  } else {
    for (std::size_t i = 0; i < frame_slots_.size(); ++i) {
      const ActiveFrame& af = frame_slots_[i];
      if (af.live) scratch_.emplace_back(af.begin_seq, static_cast<std::uint32_t>(i));
    }
  }
  // begin_seq order == begin_tx order: the dense path accumulated frames in
  // insertion order, and float addition is order-sensitive, so replaying
  // that exact order keeps culled and exhaustive results bit-identical
  // whenever they see the same candidate set.
  if (ordered) std::sort(scratch_.begin(), scratch_.end());
}

MilliWatts Medium::accumulate(NodeId node, Mhz channel, FrameId exclude,
                              const ChannelRejection& rejection) const {
  gather(node, /*ordered=*/true);
  MilliWatts total = to_milliwatts(config_.noise_floor);
  for (const auto& candidate : scratch_) {
    const Frame& f = frame_slots_[candidate.second].frame;
    if (f.id == exclude) continue;
    if (f.src == node) continue;  // a node never senses its own signal
    const Mhz delta = frequency_distance(f.channel, channel);
    total += to_milliwatts(rss(f, node) - leak_attenuation(f, delta, rejection));
  }
  return total;
}

Dbm Medium::sense_energy(NodeId node, Mhz channel) const {
  // CCA is an energy read: only the analog filter attenuates neighbours.
  return to_dbm(accumulate(node, channel, /*exclude=*/0, config_.sensing_rejection));
}

Dbm Medium::interference(NodeId rx, Mhz channel, FrameId exclude) const {
  // Decoding interference: filter + despreading gain both reject neighbours.
  return to_dbm(accumulate(rx, channel, exclude, config_.rejection));
}

bool Medium::carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const {
  // Culling guarantees frames outside the candidate set sit below the
  // receive floor; a detector tuned below that floor could still hear them,
  // so such a query scans exhaustively instead of trusting the grid.
  const bool force_exhaustive = sensitivity.value < cull_floor_dbm();
  gather(node, /*ordered=*/false, force_exhaustive);
  for (const auto& candidate : scratch_) {
    const Frame& f = frame_slots_[candidate.second].frame;
    if (f.src == node) continue;
    if (!same_channel(f.channel, channel)) continue;
    if (rss(f, node) >= sensitivity) return true;
  }
  return false;
}

Medium::Overlap Medium::overlap(NodeId rx, Mhz channel, FrameId exclude) const {
  // A culled frame's RSS is below noise − margin, so it can neither clear
  // the inter-channel noise-floor test nor meaningfully collide co-channel;
  // the candidate set suffices.
  Overlap result;
  gather(rx, /*ordered=*/false);
  for (const auto& candidate : scratch_) {
    const Frame& f = frame_slots_[candidate.second].frame;
    if (f.id == exclude || f.src == rx) continue;
    if (same_channel(f.channel, channel)) {
      result.co = true;
    } else {
      // Only count inter-channel frames whose leaked energy clears the noise
      // floor; a transmission on the far side of the band is not a collision.
      const Mhz delta = frequency_distance(f.channel, channel);
      const Db rejection = leak_attenuation(f, delta, config_.rejection);
      if (rss(f, rx) - rejection > config_.noise_floor) result.inter = true;
    }
  }
  return result;
}

}  // namespace nomc::phy
