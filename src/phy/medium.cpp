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
  // Every reception's summed terms may involve the mover.
  ++motion_epoch_;
  for (std::size_t i = 0; i < frame_slots_.size(); ++i) {
    ActiveFrame& af = frame_slots_[i];
    // Every in-flight (or reserved) frame's RSS at the mover may have
    // changed, and all of the mover's own frames' RSS: drop the memos, O(1)
    // each (a free slot's memo is already empty).
    af.rx_power.clear();
    if (!af.live) continue;
    // Re-bucket the mover's in-flight frames so the spatial index keeps
    // answering from current positions.
    if (af.frame.src != node) continue;
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
  const auto [entry, inserted] = loss_cache_[ai].try_emplace(b);
  if (inserted || entry->epoch != epochs_[bi]) {
    entry->epoch = epochs_[bi];
    entry->loss_db = config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value;
  }
#ifndef NDEBUG
  // Debug cross-check: a served cache hit must equal a fresh computation —
  // i.e. no stale entry survives motion invalidation. (Release builds skip
  // this; it turns every hit into a recompute.)
  assert(entry->loss_db == config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value &&
         "stale path-loss cache entry served after node motion");
#endif
  return entry->loss_db;
}

double Medium::fresh_rss_dbm(const Frame& frame, NodeId rx) const {
  const double loss = cached_loss_db(frame.src, rx);
  if (shadowing_.sigma_db() <= 0.0) {
    return (frame.tx_power - Db{loss}).value;
  }
  return (frame.tx_power - Db{loss} + shadowing_.sample(frame.id, rx)).value;
}

Medium::RxPower& Medium::rx_power(const ActiveFrame& af, NodeId rx) const {
  const auto [power, inserted] = af.rx_power.try_emplace(rx);
  if (inserted) power->rss_dbm = fresh_rss_dbm(af.frame, rx);
#ifndef NDEBUG
  // Debug cross-check: a served memo hit must equal a fresh computation
  // (fresh_rss_dbm's loss lookup is itself cross-checked) — i.e. no entry
  // survives end_tx or motion invalidation.
  assert(power->rss_dbm == fresh_rss_dbm(af.frame, rx) &&
         "stale received-power memo served after end_tx or node motion");
#endif
  return *power;
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
  // Reserve the slot before notifying, so the rss() reads of on_tx_start
  // fill the memo the later sums use. Not live yet: no query sees it.
  std::uint32_t slot;
  if (!free_frame_slots_.empty()) {
    slot = free_frame_slots_.back();
    free_frame_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(frame_slots_.size());
    frame_slots_.emplace_back();
  }
  {
    ActiveFrame& af = frame_slots_[slot];
    af.frame = frame;
    af.src_pos = src_pos;
    af.radius = radius;
  }
  slot_of_.emplace(frame.id, slot);
  // Notify first: listeners observe the pre-change interference set.
  notify_listeners(frame, src_pos, radius, /*start=*/true);
  // Re-index: a listener may have begun a transmission, growing frame_slots_.
  ActiveFrame& af = frame_slots_[slot];
  af.begin_seq = next_begin_seq_++;
  af.live = true;
  order_.push_back(slot);  // the largest begin_seq so far: order_ stays sorted
  log_change(af, slot, /*inserted=*/true);
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
  assert(af.live);
  const auto pos = std::lower_bound(order_.begin(), order_.end(), af.begin_seq,
                                    [this](std::uint32_t s, std::uint64_t seq) {
                                      return frame_slots_[s].begin_seq < seq;
                                    });
  assert(pos != order_.end() && *pos == slot);
  order_.erase(pos);
  assert(std::is_sorted(order_.begin(), order_.end(),
                        [this](std::uint32_t x, std::uint32_t y) {
                          return frame_slots_[x].begin_seq < frame_slots_[y].begin_seq;
                        }) &&
         "live frames out of begin_tx order");
  log_change(af, slot, /*inserted=*/false);
  if (config_.culling.enabled) grid_.remove(slot, af.src_pos);
  af.live = false;
  af.rx_power.clear();
  free_frame_slots_.push_back(slot);
  slot_of_.erase(it);
  --active_count_;
  if (active_count_ == 0) max_active_radius_ = 0.0;
}

Dbm Medium::rss(const Frame& frame, NodeId rx) const {
  // Reserved or on the air: serve (and fill) the memo. Otherwise (a
  // receiver may ask after end_tx) compute fresh — the same expression, so
  // the answer does not depend on when it is asked.
  const auto it = slot_of_.find(frame.id);
  if (it == slot_of_.end()) return Dbm{fresh_rss_dbm(frame, rx)};
  const ActiveFrame& af = frame_slots_[it->second];
  assert(af.frame.src == frame.src && af.frame.tx_power == frame.tx_power);
  return Dbm{rx_power(af, rx).rss_dbm};
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

template <typename Fn>
void Medium::for_each_candidate(NodeId node, bool ordered, bool force_exhaustive,
                                Fn&& fn) const {
  const Vec2 at = positions_[local_index(node)];
  if (!config_.culling.enabled || force_exhaustive) {
    for (const std::uint32_t slot : order_) fn(frame_slots_[slot]);
    return;
  }
  scratch_.clear();
  const bool pruned = grid_.for_each_in_disc(at, max_active_radius_, [&](std::uint32_t slot) {
    const ActiveFrame& af = frame_slots_[slot];
    if (covers(af, at)) scratch_.emplace_back(af.begin_seq, slot);
  });
  if (!pruned) {
    // order_ is begin_tx order already: no sort.
    for (const std::uint32_t slot : order_) {
      const ActiveFrame& af = frame_slots_[slot];
      if (covers(af, at)) fn(af);
    }
    return;
  }
  // begin_seq order == begin_tx order: float addition is order-sensitive,
  // so replaying that exact order keeps culled and exhaustive results
  // bit-identical whenever they see the same candidate set.
  if (ordered) std::sort(scratch_.begin(), scratch_.end());
  for (const auto& candidate : scratch_) fn(frame_slots_[candidate.second]);
}

double Medium::term_mw(const ActiveFrame& af, NodeId node, Mhz channel, Curve curve) const {
  const Frame& f = af.frame;
  RxPower& power = rx_power(af, node);
  const auto fresh_term_mw = [&] {
    const ChannelRejection& rejection =
        curve == kSensing ? config_.sensing_rejection : config_.rejection;
    const Mhz delta = frequency_distance(f.channel, channel);
    return to_milliwatts(Dbm{power.rss_dbm} - leak_attenuation(f, delta, rejection)).value;
  };
  RxPower::Term& term = power.terms[curve];
  if (term.channel_mhz != channel.value) {
    term.channel_mhz = channel.value;
    term.mw = fresh_term_mw();
  }
  assert(term.mw == fresh_term_mw() && "attenuated-power memo served for the wrong channel");
  return term.mw;
}

std::size_t Medium::replay_changes(SumMemo& memo, NodeId node, Mhz channel, FrameId exclude,
                                   Curve curve) const {
  const Vec2 at = positions_[local_index(node)];
  std::vector<SumMemo::Term>& terms = memo.terms_;
  std::size_t stale = terms.size();
  for (std::uint64_t n = memo.live_changes_; n < live_changes_; ++n) {
    const LiveChange& change = live_log_[n % kLiveLog];
    if (change.inserted) {
      // Ended since (its slot may be reused): its removal follows in the log.
      const ActiveFrame& af = frame_slots_[change.slot];
      if (!af.live || af.begin_seq != change.begin_seq) continue;
      if (af.frame.id == exclude || af.frame.src == node || !covers(af, at)) continue;
      // The newest frame on the air: its term goes last.
      stale = std::min(stale, terms.size());
      terms.push_back({af.begin_seq, term_mw(af, node, channel, curve), 0.0});
    } else {
      const auto it = std::lower_bound(
          terms.begin(), terms.end(), change.begin_seq,
          [](const SumMemo::Term& t, std::uint64_t seq) { return t.begin_seq < seq; });
      if (it == terms.end() || it->begin_seq != change.begin_seq) continue;  // never summed
      stale = std::min(stale, static_cast<std::size_t>(it - terms.begin()));
      terms.erase(it);
    }
  }
  return stale;
}

MilliWatts Medium::accumulate(NodeId node, Mhz channel, FrameId exclude, Curve curve,
                              SumMemo* memo) const {
  SumMemo& m = memo != nullptr ? *memo : scratch_memo_;
  const SumMemo::Key key{node, channel.value, exclude, curve, motion_epoch_};
  std::vector<SumMemo::Term>& terms = m.terms_;
  std::size_t stale = 0;
  if (memo != nullptr && m.key_ == key && live_changes_ - m.live_changes_ <= kLiveLog) {
    stale = replay_changes(m, node, channel, exclude, curve);
  } else {
    m.key_ = key;
    terms.clear();
    for_each_candidate(node, /*ordered=*/true, /*force_exhaustive=*/false,
                       [&](const ActiveFrame& af) {
                         if (af.frame.id == exclude) return;
                         if (af.frame.src == node) return;  // a node never senses its own signal
                         terms.push_back({af.begin_seq, term_mw(af, node, channel, curve), 0.0});
                       });
  }
  m.live_changes_ = live_changes_;
  // The one summation: from the noise floor, every term in begin_seq order.
  // Running sums before `stale` already are exactly that prefix.
  MilliWatts total = stale == 0 ? to_milliwatts(config_.noise_floor)
                                : MilliWatts{terms[stale - 1].sum};
  for (std::size_t i = stale; i < terms.size(); ++i) {
    total += MilliWatts{terms[i].mw};
    terms[i].sum = total.value;
  }
  // Debug cross-check: the memo-assisted sum must equal a memo-less one
  // bit for bit — i.e. the replay kept exactly the terms and running sums a
  // walk computes, and no term survived a change of its key.
  assert((memo == nullptr ||
          total.value == accumulate(node, channel, exclude, curve, nullptr).value) &&
         "reception memo served a stale interference term");
  return total;
}

Dbm Medium::sense_energy(NodeId node, Mhz channel) const {
  // CCA is an energy read: only the analog filter attenuates neighbours.
  return to_dbm(accumulate(node, channel, /*exclude=*/0, kSensing, /*memo=*/nullptr));
}

Dbm Medium::interference(NodeId rx, Mhz channel, FrameId exclude, SumMemo* memo) const {
  // Decoding interference: filter + despreading gain both reject neighbours.
  return to_dbm(accumulate(rx, channel, exclude, kDecode, memo));
}

bool Medium::carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const {
  // Culling guarantees frames outside the candidate set sit below the
  // receive floor; a detector tuned below that floor could still hear them,
  // so such a query scans exhaustively instead of trusting the grid.
  const bool force_exhaustive = sensitivity.value < cull_floor_dbm();
  bool present = false;
  for_each_candidate(node, /*ordered=*/false, force_exhaustive, [&](const ActiveFrame& af) {
    if (present || af.frame.src == node) return;
    if (!same_channel(af.frame.channel, channel)) return;
    if (Dbm{rx_power(af, node).rss_dbm} >= sensitivity) present = true;
  });
  return present;
}

Medium::Overlap Medium::overlap(NodeId rx, Mhz channel, FrameId exclude) const {
  // A culled frame's RSS is below noise − margin, so it can neither clear
  // the inter-channel noise-floor test nor meaningfully collide co-channel;
  // the candidate set suffices.
  Overlap result;
  for_each_candidate(rx, /*ordered=*/false, /*force_exhaustive=*/false, [&](const ActiveFrame& af) {
    const Frame& f = af.frame;
    if (f.id == exclude || f.src == rx) return;
    if (same_channel(f.channel, channel)) {
      result.co = true;
    } else {
      // Only count inter-channel frames whose leaked energy clears the noise
      // floor; a transmission on the far side of the band is not a collision.
      const Mhz delta = frequency_distance(f.channel, channel);
      const Db rejection = leak_attenuation(f, delta, config_.rejection);
      if (Dbm{rx_power(af, rx).rss_dbm} - rejection > config_.noise_floor) result.inter = true;
    }
  });
  return result;
}

}  // namespace nomc::phy
