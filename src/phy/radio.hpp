// Radio transceiver state machine.
//
// Models what the CC2420 gives the MAC: half-duplex TX/RX on one tunable
// channel, an energy read (the RSSI_VAL register behind CCA), and packet
// reception with per-packet RSSI.
//
// Reception fidelity: the radio locks onto at most one frame at a time, and
// ONLY onto frames on its own channel — the 802.15.4 uniqueness the paper
// leans on (§III-B): inter-channel packets are never decoded, they only add
// interference energy. While locked, the reception is split into segments at
// every interference change-point; per segment, bit errors are drawn from
// the O-QPSK BER at that segment's SINR. A frame finishing with zero errors
// passes CRC; otherwise the error-bit fraction is reported (feeding the
// paper's Fig. 29 recovery analysis).
#pragma once

#include <optional>

#include "phy/energy.hpp"
#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/modulation.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace nomc::phy {

/// Receives radio completion events; implemented by the MAC layer.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  /// A frame reception finished (intact or corrupted). Promiscuous: fires
  /// for every locked frame, not only ones addressed to this node — the
  /// DCN CCA-Adjustor feeds on overheard co-channel RSSI.
  virtual void on_rx(const RxResult& result) = 0;
  /// Our own transmission left the air.
  virtual void on_tx_done(const Frame& frame) = 0;
};

struct RadioConfig {
  Mhz channel{2460.0};
  Dbm sensitivity{-94.0};   ///< minimum effective RSS to lock onto a frame
  Db capture_margin{6.0};   ///< co-channel capture during preamble

  /// The receiver locks onto frames whose center frequency is within this
  /// distance of its own. 802.15.4 hardware only ever synchronizes to its
  /// exact channel (0.5 MHz => same-channel only) — the uniqueness the paper
  /// exploits. The 802.11b contrast model widens this to ~3 channels
  /// (Fig. 2: an 802.11 receiver is "forced to decode" overlapped-channel
  /// packets, losing the frame it actually wanted).
  Mhz lock_bandwidth{0.5};

  /// Demodulator used for bit-error draws.
  BerModel ber_model = BerModel::kOqpsk154;

  /// Supply-current model for energy accounting.
  EnergyModel energy{};

  /// Granularity of the per-block corruption map reported in RxResult
  /// (PPR-style recovery negotiates repairs in these units).
  int block_size_bytes = 16;
};

class Radio final : public MediumListener {
 public:
  enum class State { kIdle, kRx, kTx };

  Radio(sim::Scheduler& scheduler, Medium& medium, sim::RandomStream rng, NodeId self,
        RadioConfig config);
  ~Radio() override;
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] NodeId node() const { return self_; }
  [[nodiscard]] Mhz channel() const { return config_.channel; }

  /// Retune. Only valid while idle (the MAC never retunes mid-frame).
  void set_channel(Mhz channel);

  void set_listener(RadioListener* listener) { listener_ = listener; }

  /// Instantaneous energy read on the tuned channel (CCA's input).
  [[nodiscard]] Dbm sense_energy() const;

  /// Put `frame` on the air now. Must not already be transmitting; an
  /// in-progress reception is abandoned (TX takes over, as on hardware).
  void transmit(const Frame& frame);

  /// Put `frame` on the air `lead` from now: schedules transmit() and
  /// returns the cancellable event id. `skip_if_busy` silently drops the
  /// frame if the radio is transmitting at fire time (control frames yield
  /// to an ongoing TX).
  sim::EventId schedule_tx(sim::SimTime lead, Frame frame, bool skip_if_busy = false);

  /// Abandon an in-progress reception, if any.
  void abort_rx();

  /// Energy consumed since construction, accounted up to the current
  /// simulated time (TX at the power-dependent current, everything else at
  /// the RX/listen current — a saturated mote never sleeps).
  [[nodiscard]] RadioEnergy energy_consumed();

  // MediumListener:
  void on_tx_start(const Frame& frame) override;
  void on_tx_end(const Frame& frame) override;

 private:
  struct RxContext {
    Frame frame;
    Dbm rssi{-300.0};
    sim::SimTime start;
    sim::SimTime last_boundary;
    std::int64_t bit_errors = 0;
    bool overlapped_co = false;
    bool overlapped_inter = false;
    std::vector<bool> dirty_blocks;  ///< per-block corruption accumulator
  };

  void lock_onto(const Frame& frame, Dbm rssi);
  /// Accumulate energy for [energy_mark_, t) at the current state's current.
  void account_energy_until(sim::SimTime t);
  /// Accumulate bit errors for [last_boundary, now) under the current
  /// interference set, then advance the boundary.
  void close_segment();
  void finish_rx();

  sim::Scheduler& scheduler_;
  Medium& medium_;
  sim::RandomStream rng_;
  NodeId self_;
  RadioConfig config_;
  RadioListener* listener_ = nullptr;
  State state_ = State::kIdle;
  std::optional<RxContext> rx_;

  RadioEnergy energy_;
  sim::SimTime energy_mark_;       // accounted up to here
  Dbm tx_power_in_flight_{0.0};    // current of the frame being transmitted
};

}  // namespace nomc::phy
