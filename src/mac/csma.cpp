#include "mac/csma.hpp"

#include <cassert>

namespace nomc::mac {

CsmaMac::CsmaMac(sim::Scheduler& scheduler, phy::Medium& medium, phy::Radio& radio,
                 sim::RandomStream rng, CcaThresholdProvider& cca, CsmaParams params)
    : scheduler_{scheduler},
      medium_{medium},
      radio_{radio},
      rng_{std::move(rng)},
      cca_{cca},
      params_{params} {
  assert(params_.min_be >= 0 && params_.min_be <= params_.max_be);
  assert(params_.max_backoffs >= 0);
  radio_.set_listener(this);
}

CsmaMac::~CsmaMac() {
  if (pending_event_ != sim::kInvalidEventId) scheduler_.cancel(pending_event_);
  if (ack_timer_ != sim::kInvalidEventId) scheduler_.cancel(ack_timer_);
  radio_.set_listener(nullptr);
}

void CsmaMac::enqueue(TxRequest request) {
  assert(request.psdu_bytes > 0);
  if (queue_.size() >= params_.max_queue) {
    ++counters_.queue_drops;  // tail drop, as on a full mote buffer
    return;
  }
  queue_.push_back(request);
  maybe_start_next();
}

void CsmaMac::enqueue_front(TxRequest request) {
  assert(request.psdu_bytes > 0);
  if (queue_.size() >= params_.max_queue) {
    ++counters_.queue_drops;
    return;
  }
  queue_.push_front(request);
  maybe_start_next();
}

void CsmaMac::send_control(phy::Frame frame) {
  frame.id = medium_.allocate_frame_id();
  frame.src = radio_.node();
  frame.channel = radio_.channel();
  frame.tx_power = tx_power_;
  radio_.schedule_tx(params_.turnaround, frame, /*skip_if_busy=*/true);
}

void CsmaMac::set_saturated(TxRequest request) {
  assert(request.psdu_bytes > 0);
  saturated_ = request;
  maybe_start_next();
}

void CsmaMac::maybe_start_next() {
  if (current_.has_value()) return;
  if (queue_.empty()) {
    if (!saturated_.has_value()) return;
    queue_.push_back(*saturated_);
  }
  current_ = queue_.front();
  queue_.pop_front();
  retries_ = 0;
  access_retries_ = 0;
  // DSN is stable across retries; PPR repairs reuse the original frame's.
  awaiting_ack_sequence_ =
      current_->fixed_sequence.has_value() ? *current_->fixed_sequence : next_sequence_++;
  start_attempt();
}

void CsmaMac::start_attempt() {
  nb_ = 0;
  be_ = params_.min_be;
  backoff_then_cca();
}

void CsmaMac::backoff_then_cca() {
  // In steady state pending_event_ is always invalid here. A stale tx-done —
  // a frame left in flight by this radio's previous listener — can restart
  // the attempt while a CCA timer is still pending; overwriting the id would
  // orphan that timer past the destructor's cancel (use-after-scope).
  if (pending_event_ != sim::kInvalidEventId) scheduler_.cancel(pending_event_);
  const std::int64_t max_units = (std::int64_t{1} << be_) - 1;
  const std::int64_t units = rng_.uniform_int(0, max_units);
  pending_event_ = scheduler_.schedule_in(units * params_.unit_backoff + params_.cca_duration,
                                          [this] { do_cca(); });
}

void CsmaMac::do_cca() {
  pending_event_ = sim::kInvalidEventId;
  assert(current_.has_value());

  // Sampled at the end of the 8-symbol CCA window; the threshold is re-read
  // every time, so a dynamic provider (DCN) takes effect immediately.
  bool busy = false;
  if (params_.cca_mode != CcaMode::kCarrierSense) {
    busy = radio_.sense_energy() > cca_.threshold();
  }
  if (!busy && params_.cca_mode != CcaMode::kEnergy) {
    busy = medium_.carrier_present(radio_.node(), radio_.channel(),
                                   params_.carrier_sense_sensitivity);
  }
  if (busy) {
    ++counters_.cca_backoffs;
    if (scheduler_.trace() != nullptr) {
      scheduler_.trace_event({.category = "mac", .event = "cca_busy", .node = radio_.node(),
                              .value = radio_.sense_energy().value});
    }
    ++nb_;
    if (nb_ > params_.max_backoffs) {
      // Channel access failure.
      ++counters_.cca_failures;
      scheduler_.trace_event(
          {.category = "mac", .event = "access_failure", .node = radio_.node()});
      if (access_retries_ < params_.access_failure_retries) {
        ++access_retries_;
        start_attempt();  // upper-layer retry: fresh BE/NB
        return;
      }
      finish_current();
      return;
    }
    be_ = std::min(be_ + 1, params_.max_be);
    backoff_then_cca();
    return;
  }

  // CCA is clear: the transmission is committed. The frame is built (and its
  // id allocated) here, at the commit instant; the radio fires exactly one
  // turnaround later.
  phy::Frame frame;
  frame.id = medium_.allocate_frame_id();
  frame.src = radio_.node();
  frame.dst = current_->dst;
  frame.channel = radio_.channel();
  frame.tx_power = tx_power_;
  frame.psdu_bytes = current_->psdu_bytes;
  frame.sequence = awaiting_ack_sequence_;
  frame.ack_request = current_->ack_request;
  frame.repair_round = current_->repair_round;
  frame.aux = current_->aux;
  pending_event_ = radio_.schedule_tx(params_.turnaround, frame);
  // Completion continues in on_tx_done().
}

void CsmaMac::send_ack(const phy::Frame& data_frame) {
  // ACKs bypass CSMA: transmitted a turnaround after the data frame ends
  // (802.15.4 §7.5.6.4.2), unless the radio has been re-keyed meanwhile.
  phy::Frame ack;
  ack.dst = data_frame.src;
  ack.psdu_bytes = phy::kAckPsduBytes;
  ack.type = phy::FrameType::kAck;
  ack.sequence = data_frame.sequence;
  send_control(ack);
}

void CsmaMac::on_ack_timeout() {
  ack_timer_ = sim::kInvalidEventId;
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  ++retries_;
  if (retries_ > params_.max_frame_retries) {
    ++counters_.retry_drops;
    finish_current();
    return;
  }
  ++counters_.retransmissions;
  start_attempt();  // full CSMA procedure again, same DSN
}

void CsmaMac::finish_current() {
  current_.reset();
  maybe_start_next();
}

void CsmaMac::on_tx_done(const phy::Frame& frame) {
  if (frame.type == phy::FrameType::kAck) return;  // not a data completion
  ++counters_.sent;
  if (frame.ack_request) {
    awaiting_ack_ = true;
    ack_timer_ = scheduler_.schedule_in(params_.ack_wait, [this] { on_ack_timeout(); });
    return;  // completion decided by the ACK or its timeout
  }
  finish_current();
}

void CsmaMac::on_rx(const phy::RxResult& result) {
  for (const auto& hook : rx_hooks_) hook(result);

  const bool for_me = result.frame.dst == radio_.node();
  if (!for_me) return;

  // Control frames other than ACKs (e.g. PPR block-NACKs) are consumed by
  // subscribed hooks; they are not data deliveries.
  if (result.frame.type == phy::FrameType::kBlockNack) return;

  if (result.frame.type == phy::FrameType::kAck) {
    if (result.crc_ok && awaiting_ack_ && result.frame.sequence == awaiting_ack_sequence_) {
      awaiting_ack_ = false;
      if (ack_timer_ != sim::kInvalidEventId) {
        scheduler_.cancel(ack_timer_);
        ack_timer_ = sim::kInvalidEventId;
      }
      ++counters_.acked;
      finish_current();
    }
    return;  // ACKs never count as data deliveries
  }

  if (result.collided()) {
    ++counters_.collided;
    if (result.crc_ok) ++counters_.collided_received;
  }
  if (!result.crc_ok) {
    ++counters_.crc_failed;
    return;
  }

  // Retransmission handling: acknowledge every intact copy, deliver only
  // the first (DSN-based duplicate rejection, 802.15.4 §7.5.6.2).
  if (result.frame.ack_request) {
    const auto [it, inserted] = last_sequence_.try_emplace(result.frame.src, -1);
    const bool duplicate = !inserted && it->second == static_cast<int>(result.frame.sequence);
    it->second = static_cast<int>(result.frame.sequence);
    send_ack(result.frame);
    if (duplicate) {
      ++counters_.duplicates;
      return;
    }
  }

  ++counters_.received;
  if (delivery_hook_) delivery_hook_(result);
}

}  // namespace nomc::mac
