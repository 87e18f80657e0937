// IEEE 802.15.4 unslotted CSMA/CA, parameterized on the CCA threshold.
//
// The transmit path follows the standard: for each frame, NB=0, BE=macMinBE;
// wait a random backoff of [0, 2^BE−1] unit periods; perform CCA; if busy,
// NB++, BE=min(BE+1, macMaxBE) and retry, giving up after macMaxCSMABackoffs
// busy CCAs (channel access failure); if clear, turn the radio around and
// transmit. No acknowledgements: the paper measures one-way saturation
// throughput at the receivers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mac/cca.hpp"
#include "phy/radio.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/counters.hpp"

namespace nomc::mac {

/// CCA decision modes, after the CC2420's CCA_MODE register:
///   kEnergy        — busy when sensed energy exceeds the threshold (mode 1;
///                    the mode the paper studies and DCN tunes);
///   kCarrierSense  — busy when 802.15.4 modulation is detected on the tuned
///                    channel (mode 2). Inter-channel signals are invisible
///                    to the demodulator, so this is an in-hardware
///                    implementation of §VII-C's "identify the interference
///                    as co-channel or not" future work;
///   kEnergyOrCarrier — busy when either trips (mode 3, conservative).
enum class CcaMode {
  kEnergy,
  kCarrierSense,
  kEnergyOrCarrier,
};

struct CsmaParams {
  int min_be = 3;            ///< macMinBE
  int max_be = 5;            ///< macMaxBE
  int max_backoffs = 4;      ///< macMaxCSMABackoffs

  CcaMode cca_mode = CcaMode::kEnergy;
  /// Weakest co-channel carrier the modulation detector still reports.
  phy::Dbm carrier_sense_sensitivity{-94.0};
  sim::SimTime unit_backoff = phy::kUnitBackoff;
  sim::SimTime cca_duration = phy::kCcaDuration;
  sim::SimTime turnaround = phy::kTurnaround;

  // Acknowledgement support (802.15.4 §7.5.6.4). The paper's experiments
  // run without ACKs (throughput is measured at the receivers), so the
  // default is off; a production deployment turns it on per TxRequest.
  int max_frame_retries = 3;                              ///< macMaxFrameRetries
  sim::SimTime ack_wait = sim::SimTime::microseconds(864);  ///< macAckWaitDuration

  /// Transmit queue capacity; enqueue beyond it drops the newest frame
  /// (counted in PacketCounters::queue_drops). Relay nodes in multi-hop
  /// collection set this to a small buffer like real motes.
  std::size_t max_queue = 1u << 20;

  /// Upper-layer reaction to CHANNEL_ACCESS_FAILURE: restart the whole CSMA
  /// procedure up to this many times before dropping the frame. The
  /// standard MAC drops immediately (0, the default — what the paper's
  /// experiments ran); deployed stacks (e.g. TinyOS's) retry, which matters
  /// under bursty relay traffic where consecutive CCAs are correlated.
  int access_failure_retries = 0;
};

/// A queued outgoing frame: destination + PSDU size (+ optional ACK).
/// The PPR fields let a recovery layer retransmit under the original DSN.
struct TxRequest {
  phy::NodeId dst = phy::kNoNode;
  int psdu_bytes = 0;
  bool ack_request = false;
  std::optional<std::uint8_t> fixed_sequence;  ///< reuse this DSN (repairs)
  std::uint8_t repair_round = 0;               ///< >0 marks a PPR repair frame
  std::uint16_t aux = 0;                       ///< copied into Frame::aux
};

class CsmaMac final : public phy::RadioListener {
 public:
  /// `cca` must outlive the MAC; it is queried at every CCA instant, which is
  /// what lets DCN move the threshold while the network runs.
  CsmaMac(sim::Scheduler& scheduler, phy::Medium& medium, phy::Radio& radio,
          sim::RandomStream rng, CcaThresholdProvider& cca, CsmaParams params = {});
  ~CsmaMac() override;
  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

  void set_tx_power(phy::Dbm power) { tx_power_ = power; }
  [[nodiscard]] phy::Dbm tx_power() const { return tx_power_; }

  /// Queue one frame for transmission.
  void enqueue(TxRequest request);

  /// Queue ahead of everything else (PPR repairs preempt fresh data so the
  /// receiver's partial packet is still warm).
  void enqueue_front(TxRequest request);

  /// Transmit a control frame a turnaround from now, bypassing CSMA — the
  /// path ACKs use; PPR block-NACK feedback rides it too.
  void send_control(phy::Frame frame);

  /// Saturated mode: whenever the queue drains, another copy of `request` is
  /// generated, so the node always has traffic pending (the paper's
  /// "maximum data rate" senders).
  void set_saturated(TxRequest request);

  /// Stop generating saturated traffic (pending frame still completes).
  void stop_saturated() { saturated_.reset(); }

  /// Called for every frame this node's radio decodes (CRC pass or fail),
  /// promiscuously. DCN's adjustor subscribes here for co-channel RSSI;
  /// PPR's sender/receiver sides subscribe for feedback. Hooks accumulate.
  void add_rx_hook(std::function<void(const phy::RxResult&)> hook) {
    rx_hooks_.push_back(std::move(hook));
  }

  /// Replaces all hooks with `hook` (legacy single-subscriber form).
  void set_rx_hook(std::function<void(const phy::RxResult&)> hook) {
    rx_hooks_.clear();
    rx_hooks_.push_back(std::move(hook));
  }

  /// Called after each successful delivery *addressed to this node*.
  void set_delivery_hook(std::function<void(const phy::RxResult&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  [[nodiscard]] const stats::PacketCounters& counters() const { return counters_; }
  [[nodiscard]] stats::PacketCounters& counters() { return counters_; }

  [[nodiscard]] phy::NodeId node() const { return radio_.node(); }
  [[nodiscard]] bool busy() const { return current_.has_value(); }
  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }

  // RadioListener:
  void on_rx(const phy::RxResult& result) override;
  void on_tx_done(const phy::Frame& frame) override;

 private:
  void maybe_start_next();
  void start_attempt();
  void backoff_then_cca();
  void do_cca();
  /// The channel (or the radio itself) is busy: advance NB/BE and back off,
  /// or declare a channel access failure at the limit.
  void back_off_busy();
  void finish_current();
  void on_ack_timeout();
  void send_ack(const phy::Frame& data_frame);

  sim::Scheduler& scheduler_;
  phy::Medium& medium_;
  phy::Radio& radio_;
  sim::RandomStream rng_;
  CcaThresholdProvider& cca_;
  CsmaParams params_;

  phy::Dbm tx_power_{0.0};
  std::deque<TxRequest> queue_;
  std::optional<TxRequest> saturated_;

  std::optional<TxRequest> current_;
  int nb_ = 0;       // backoff attempts for the current frame
  int be_ = 0;       // current backoff exponent
  int retries_ = 0;  // retransmissions of the current frame (ACK mode)
  int access_retries_ = 0;  // CSMA-procedure restarts for the current frame
  std::uint8_t next_sequence_ = 0;
  std::uint8_t awaiting_ack_sequence_ = 0;
  bool awaiting_ack_ = false;
  sim::EventId pending_event_ = sim::kInvalidEventId;
  sim::EventId ack_timer_ = sim::kInvalidEventId;
  std::unordered_map<phy::NodeId, int> last_sequence_;  // DSN dedup per source

  std::vector<std::function<void(const phy::RxResult&)>> rx_hooks_;
  std::function<void(const phy::RxResult&)> delivery_hook_;
  stats::PacketCounters counters_;
};

}  // namespace nomc::mac
