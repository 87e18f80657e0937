// The shared wireless medium.
//
// Tracks node positions and the set of in-flight transmissions, and answers
// the three questions everything above it asks:
//   * what is frame F's received signal strength at node N (path loss +
//     per-frame shadowing),
//   * how much total energy does node N sense on channel C right now
//     (co-channel plus rejection-attenuated inter-channel leakage plus the
//     noise floor — exactly what a CCA energy detector integrates), and
//   * what interference does node N see while decoding frame F on channel C.
//
// The medium has no notion of time: radios drive it with begin_tx/end_tx and
// it notifies listeners *before* mutating the active set, so a listener
// closing an error-accumulation segment still observes the interference set
// that was valid up to this instant.
//
// Scaling (see docs/scaling.md for the full story): queries used to walk
// every active frame — O(active) per CCA read, quadratic in node count per
// simulated second. With culling enabled (the default) every frame carries a
// conservative *influence radius*: the distance at which its strongest
// plausible RSS (tx power + a shadowing cap) falls `margin_db` below the
// noise floor. A uniform hash grid over transmitter positions lets a query
// visit only frames whose influence disc covers the querying node; frames
// beyond their radius are invisible to all queries (their contribution is
// provably below the receive floor). At paper scale the radius exceeds the
// deployment span, nothing is culled, and every result is bit-identical to
// the exhaustive path — which is pinned by tests and keeps the golden stores
// byte-stable.
//
// Hot-path caching: rss() is a pure function of (frame, rx) — tx power minus
// a position-determined path loss plus a hash-determined shadowing draw —
// and it is queried once per relevant frame per CCA/SINR evaluation,
// millions of times per run. The medium memoizes both pieces sparsely (a
// node only ever asks about its radio neighbours):
//   * pairwise path loss in per-node open-addressing maps whose entries
//     snapshot the other endpoint's motion epoch — set_position invalidates
//     every pair involving the moved node in O(1) by bumping its epoch, and
//   * per-(frame id, rx) shadowing draws in pooled maps, recycled when the
//     frame leaves the air (recomputation is bit-identical, so eviction is a
//     pure perf event).
// The caches make the const query methods write to mutable state; a Medium
// is single-threaded like the Scenario that owns it (parallel replication
// runs one Medium per thread — see sim/parallel.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
#include "phy/node_map.hpp"
#include "phy/path_loss.hpp"
#include "phy/rejection.hpp"
#include "phy/spatial_grid.hpp"
#include "phy/units.hpp"

namespace nomc::phy {

class MediumListener {
 public:
  virtual ~MediumListener() = default;
  /// A frame is about to start; it is NOT yet in the active set.
  virtual void on_tx_start(const Frame& frame) = 0;
  /// A frame is about to end; it is STILL in the active set.
  virtual void on_tx_end(const Frame& frame) = 0;
};

/// Spatial interference culling knobs. The defaults are conservative enough
/// that paper-scale scenarios (metres to tens of metres across) cull nothing
/// and reproduce the exhaustive path bit for bit; city-scale scenarios
/// (kilometres) drop far-field frames whose energy is unobservable.
struct CullingConfig {
  bool enabled = true;
  /// A frame is culled at a receiver only once its strongest plausible RSS
  /// is this many dB below the noise floor ("receive floor" = noise − margin).
  double margin_db = 10.0;
  /// Shadowing head-room, in sigmas, folded into the influence radius so a
  /// lucky constructive fade cannot push a culled frame above the floor.
  double shadow_cap_sigma = 6.0;
  /// Grid cell edge in metres; <= 0 derives it from the influence radius of
  /// a nominal 0 dBm transmitter (queries then touch ~3x3 cells).
  double cell_size_m = 0.0;
};

struct MediumConfig {
  LogDistancePathLoss path_loss{};
  /// Demodulator-path rejection: governs decoding SINR.
  ChannelRejection rejection = ChannelRejection::cc2420_decode();
  /// Energy-detector-path rejection: governs CCA sensing.
  ChannelRejection sensing_rejection = ChannelRejection::cc2420_sensing();
  Dbm noise_floor{-95.0};
  double shadowing_sigma_db = 2.5;
  std::uint64_t seed = 1;
  CullingConfig culling{};
};

class Medium {
 public:
  explicit Medium(MediumConfig config = {});
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a node at `position`; returns its id (dense, starting at 0).
  NodeId add_node(Vec2 position);
  [[nodiscard]] std::size_t node_count() const { return positions_.size(); }
  /// True when `node` was registered with this medium.
  [[nodiscard]] bool owns(NodeId node) const { return node < positions_.size(); }
  [[nodiscard]] Vec2 position(NodeId node) const;
  void set_position(NodeId node, Vec2 position);

  /// Listeners (radios) are notified of tx start/end. `node` is the
  /// listener's own node: with culling enabled,
  /// notifications are delivered only to listeners inside the frame's
  /// influence disc — beyond it the frame is unobservable by construction,
  /// so skipping the callback only re-anchors where error-segment RNG draws
  /// happen, never what a receiver can measure. Assumes listeners do not
  /// move across an influence boundary while a frame is in flight (static
  /// deployments; paper-scale discs exceed the deployment span, so nothing
  /// is ever skipped there).
  void add_listener(MediumListener* listener, NodeId node);
  void remove_listener(MediumListener* listener);

  [[nodiscard]] FrameId allocate_frame_id() { return next_frame_id_++; }

  void begin_tx(const Frame& frame);
  void end_tx(FrameId id);

  /// RSS of `frame` at `rx`: tx power − path loss ± shadowing. Deterministic
  /// per (frame, rx): every query about the same pair agrees.
  [[nodiscard]] Dbm rss(const Frame& frame, NodeId rx) const;

  /// Total energy a CCA detector at `node`, tuned to `channel`, reads:
  /// every relevant active frame not transmitted by `node`, attenuated by
  /// the rejection curve, summed in mW with the thermal noise floor.
  [[nodiscard]] Dbm sense_energy(NodeId node, Mhz channel) const;

  /// Interference-plus-noise for decoding frame `exclude` at `rx` on
  /// `channel`: as sense_energy but also excluding the wanted frame itself.
  [[nodiscard]] Dbm interference(NodeId rx, Mhz channel, FrameId exclude) const;

  struct Overlap {
    bool co = false;     ///< a co-channel frame is on the air (within range)
    bool inter = false;  ///< an inter-channel frame with energy above noise
  };
  /// What kinds of concurrent transmission (other than `exclude` and `rx`'s
  /// own) are on the air right now, from `rx`'s perspective on `channel`.
  [[nodiscard]] Overlap overlap(NodeId rx, Mhz channel, FrameId exclude) const;

  /// Carrier-sense detector: is a CO-CHANNEL transmission (not `node`'s own)
  /// in progress whose RSS at `node` clears `sensitivity`? This is what the
  /// CC2420's CCA modes 2/3 report — modulation detection only works on the
  /// tuned channel, so inter-channel energy is inherently invisible to it
  /// (the classifier the paper's §VII-C asks for). A `sensitivity` below the
  /// receive floor falls back to an exhaustive scan, so culling can never
  /// hide a carrier the detector was asked to hear.
  [[nodiscard]] bool carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const;

  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  [[nodiscard]] Dbm noise_floor() const { return config_.noise_floor; }
  [[nodiscard]] const ChannelRejection& rejection() const { return config_.rejection; }
  [[nodiscard]] const ChannelRejection& sensing_rejection() const {
    return config_.sensing_rejection;
  }
  [[nodiscard]] const LogDistancePathLoss& path_loss() const { return config_.path_loss; }

  /// The culling radius a frame sent at `tx_power` would carry: where
  /// tx_power + shadow_cap falls to the receive floor. Exposed for tests,
  /// benches, and the derivation walk-through in docs/scaling.md.
  [[nodiscard]] double influence_radius_m(Dbm tx_power) const;
  [[nodiscard]] bool culling_enabled() const { return config_.culling.enabled; }

 private:
  /// An in-flight frame, pool-allocated: slots are recycled through a free
  /// list so steady-state begin/end traffic does not allocate, and the grid
  /// can refer to frames by stable 32-bit slot index.
  struct ActiveFrame {
    Frame frame{};
    Vec2 src_pos{};               ///< transmitter position as bucketed in the grid
    std::uint64_t begin_seq = 0;  ///< global begin_tx order: fixes summation order
    double radius = 0.0;          ///< influence radius in metres
    bool live = false;
  };

  [[nodiscard]] MilliWatts accumulate(NodeId node, Mhz channel, FrameId exclude,
                                      const ChannelRejection& rejection) const;
  /// Deliver on_tx_start/on_tx_end for `frame` to every listener inside its
  /// influence disc (all listeners when culling is off).
  void notify_listeners(const Frame& frame, Vec2 src_pos, double radius, bool start);
  /// How much of frame `f`'s energy leaks into a receiver tuned `delta` away:
  /// the receiver's filter curve, floored by the transmitter's own emission
  /// mask when one is attached (a wide transmitter puts power inside a
  /// narrow receiver's passband no matter how good the receiver's filter
  /// is). Shared by accumulate() and overlap() so the two cannot drift.
  [[nodiscard]] static Db leak_attenuation(const Frame& f, Mhz delta,
                                           const ChannelRejection& rejection);
  /// Memoized PL(distance(a, b)); entries staled by either endpoint moving.
  [[nodiscard]] double cached_loss_db(NodeId a, NodeId b) const;
  /// Memoized shadowing draw for (frame id, rx).
  [[nodiscard]] double cached_shadow_db(FrameId frame, NodeId rx) const;

  /// Dense storage index of a registered node.
  [[nodiscard]] std::size_t local_index(NodeId node) const {
    assert(owns(node));
    return static_cast<std::size_t>(node);
  }

  /// Noise floor minus the culling margin, in dBm: energy below this is
  /// treated as unobservable.
  [[nodiscard]] double cull_floor_dbm() const {
    return config_.noise_floor.value - config_.culling.margin_db;
  }
  /// Fills scratch_ with (begin_seq, slot) for every frame relevant to
  /// `node` — all live frames when exhaustive (culling off or forced), else
  /// only frames whose influence disc covers `node`. Sorts by begin_seq when
  /// `ordered` so floating-point accumulation replays begin_tx order exactly.
  void gather(NodeId node, bool ordered, bool force_exhaustive = false) const;

  /// A registered listener and the node it listens at (for notification
  /// culling against the influence disc).
  struct ListenerEntry {
    MediumListener* listener = nullptr;
    NodeId node = kNoNode;
  };

  MediumConfig config_;
  ShadowingField shadowing_;
  std::vector<Vec2> positions_;
  /// Bumped when the node moves; loss-cache entries snapshot it (see below).
  std::vector<std::uint32_t> epochs_;
  std::vector<ListenerEntry> listeners_;
  FrameId next_frame_id_ = 1;

  // -- Active set (slot pool + spatial index) ----------------------------
  std::vector<ActiveFrame> frame_slots_;
  std::vector<std::uint32_t> free_frame_slots_;
  std::unordered_map<FrameId, std::uint32_t> slot_of_;
  SpatialFrameGrid grid_;
  std::size_t active_count_ = 0;
  std::uint64_t next_begin_seq_ = 0;
  /// Largest influence radius among frames begun this busy period; bounds
  /// the query disc. Reset when the air goes quiet.
  double max_active_radius_ = 0.0;

  // -- Memoization (see the header comment) ------------------------------
  /// loss_cache_[a] maps b -> PL(a, b) stamped with b's epoch at compute
  /// time. A move bumps the mover's epoch and clears its own map: every
  /// stale pair then fails the epoch check on its next lookup.
  mutable std::vector<NodeValueMap> loss_cache_;
  /// Per-frame shadowing draws keyed by rx; map storage recycles through
  /// spare_maps_ when frames leave the air.
  mutable std::unordered_map<FrameId, NodeValueMap> shadow_cache_;
  mutable std::vector<NodeValueMap> spare_maps_;
  /// Query candidate buffer, reused across queries (single-threaded).
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch_;
};

}  // namespace nomc::phy
