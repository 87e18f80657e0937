#include "mac/csma.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "mac/cca.hpp"

namespace nomc::mac {
namespace {

/// Rig: two nodes 2 m apart on a quiet medium.
class CsmaTest : public ::testing::Test {
 protected:
  CsmaTest() {
    phy::MediumConfig config;
    config.shadowing_sigma_db = 0.0;
    medium_.emplace(config);
    sender_id_ = medium_->add_node({0.0, 0.0});
    receiver_id_ = medium_->add_node({0.0, 2.0});

    phy::RadioConfig radio_config;
    radio_config.channel = phy::Mhz{2460.0};
    sender_radio_.emplace(scheduler_, *medium_, sim::RandomStream{1, 0}, sender_id_,
                          radio_config);
    receiver_radio_.emplace(scheduler_, *medium_, sim::RandomStream{1, 1}, receiver_id_,
                            radio_config);
  }

  std::unique_ptr<CsmaMac> make_sender(CcaThresholdProvider& cca, CsmaParams params = {}) {
    return std::make_unique<CsmaMac>(scheduler_, *medium_, *sender_radio_,
                                     sim::RandomStream{1, 2}, cca, params);
  }
  std::unique_ptr<CsmaMac> make_receiver(CcaThresholdProvider& cca) {
    return std::make_unique<CsmaMac>(scheduler_, *medium_, *receiver_radio_,
                                     sim::RandomStream{1, 3}, cca);
  }

  sim::Scheduler scheduler_;
  std::optional<phy::Medium> medium_;
  phy::NodeId sender_id_ = 0;
  phy::NodeId receiver_id_ = 0;
  std::optional<phy::Radio> sender_radio_;
  std::optional<phy::Radio> receiver_radio_;
};

TEST_F(CsmaTest, SingleFrameDelivered) {
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender = make_sender(cca);
  auto receiver = make_receiver(cca);

  sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();

  EXPECT_EQ(sender->counters().sent, 1u);
  EXPECT_EQ(receiver->counters().received, 1u);
  EXPECT_EQ(receiver->counters().crc_failed, 0u);
}

TEST_F(CsmaTest, QueueDrainsInOrder) {
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender = make_sender(cca);
  auto receiver = make_receiver(cca);

  for (int i = 0; i < 5; ++i) sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();
  EXPECT_EQ(sender->counters().sent, 5u);
  EXPECT_EQ(receiver->counters().received, 5u);
}

TEST_F(CsmaTest, SaturatedModeKeepsSending) {
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender = make_sender(cca);
  auto receiver = make_receiver(cca);

  sender->set_saturated(TxRequest{receiver_id_, 100});
  scheduler_.run_until(sim::SimTime::seconds(1.0));

  // 100-byte PSDU ≈ 3.4 ms airtime + ~1.4 ms MAC overhead: expect on the
  // order of 200 frames/s on a quiet channel.
  EXPECT_GT(sender->counters().sent, 150u);
  EXPECT_LT(sender->counters().sent, 300u);
  EXPECT_EQ(receiver->counters().received, sender->counters().sent);

  sender->stop_saturated();
  const auto sent_before = sender->counters().sent;
  scheduler_.run_until(sim::SimTime::seconds(1.2));
  // At most the in-flight frame completes after the stop.
  EXPECT_LE(sender->counters().sent, sent_before + 1);
}

TEST_F(CsmaTest, BusyChannelCausesBackoffs) {
  // Pin the threshold below the noise floor: CCA always reports busy.
  FixedCcaThreshold cca{phy::Dbm{-120.0}};
  auto sender = make_sender(cca);

  sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();

  // macMaxCSMABackoffs=4 allows 5 CCA attempts; then channel access failure.
  EXPECT_EQ(sender->counters().sent, 0u);
  EXPECT_EQ(sender->counters().cca_failures, 1u);
  EXPECT_EQ(sender->counters().cca_backoffs, 5u);
}

TEST_F(CsmaTest, AccessFailureMovesToNextFrame) {
  FixedCcaThreshold cca{phy::Dbm{-120.0}};
  auto sender = make_sender(cca);
  for (int i = 0; i < 3; ++i) sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();
  EXPECT_EQ(sender->counters().cca_failures, 3u);
  EXPECT_FALSE(sender->busy());
}

TEST_F(CsmaTest, DynamicThresholdTakesEffectImmediately) {
  FixedCcaThreshold cca{phy::Dbm{-120.0}};  // busy at first
  auto sender = make_sender(cca);
  auto receiver_cca = FixedCcaThreshold{kZigbeeDefaultCcaThreshold};
  auto receiver = make_receiver(receiver_cca);

  sender->set_saturated(TxRequest{receiver_id_, 100});
  scheduler_.run_until(sim::SimTime::milliseconds(200));
  EXPECT_EQ(sender->counters().sent, 0u);

  // DCN's seam: raise the threshold mid-run; the MAC re-reads it per CCA.
  cca.set(kZigbeeDefaultCcaThreshold);
  scheduler_.run_until(sim::SimTime::milliseconds(400));
  EXPECT_GT(sender->counters().sent, 10u);
  EXPECT_GT(receiver->counters().received, 10u);
}

TEST_F(CsmaTest, BackoffDelayGrowsWithRetries) {
  // A frame that always fails CCA takes at least the sum of minimum CCA
  // windows, and the expected exponential backoff dominates the timeline.
  FixedCcaThreshold cca{phy::Dbm{-120.0}};
  auto sender = make_sender(cca);
  sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();
  // 5 backoff rounds of up to {7,15,31,31,31} unit periods + 5 CCA windows.
  const auto elapsed = scheduler_.now();
  EXPECT_GE(elapsed, 5 * phy::kCcaDuration);
  EXPECT_LE(elapsed, 115 * phy::kUnitBackoff + 5 * phy::kCcaDuration);
}

TEST_F(CsmaTest, TwoSaturatedSendersShareChannel) {
  phy::RadioConfig radio_config;
  radio_config.channel = phy::Mhz{2460.0};
  const phy::NodeId other_id = medium_->add_node({0.5, 0.0});
  phy::Radio other_radio{scheduler_, *medium_, sim::RandomStream{1, 7}, other_id, radio_config};

  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender_a = make_sender(cca);
  CsmaMac sender_b{scheduler_, *medium_, other_radio, sim::RandomStream{1, 8}, cca};
  auto receiver = make_receiver(cca);

  sender_a->set_saturated(TxRequest{receiver_id_, 100});
  sender_b.set_saturated(TxRequest{receiver_id_, 100});
  scheduler_.run_until(sim::SimTime::seconds(2.0));

  // Carrier sensing keeps most transmissions collision-free; the residual
  // losses come from the turnaround race (both senders pass CCA within the
  // same 192 us window), which the standard accepts too.
  const auto total_sent = sender_a->counters().sent + sender_b.counters().sent;
  EXPECT_GT(receiver->counters().received, total_sent * 8 / 10);
  // Both get comparable shares (within 3x of each other).
  EXPECT_LT(sender_a->counters().sent, 3 * sender_b.counters().sent);
  EXPECT_LT(sender_b.counters().sent, 3 * sender_a->counters().sent);
}

TEST_F(CsmaTest, AckKeyedInsideTurnaroundBacksOffTheData) {
  // Half-duplex policy: the sender passes CCA and commits a data frame, then
  // an ACK it keyed just before the commit goes on the air 1 ns ahead of the
  // data frame. The data frame must count as a busy channel and back off,
  // not share the one radio with the ACK.
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  CsmaParams params;
  params.min_be = 0;  // no random first backoff: the commit is at cca_duration
  auto sender = make_sender(cca, params);
  auto receiver = make_receiver(cca);

  sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.schedule_at(params.cca_duration - sim::SimTime::nanoseconds(1), [&] {
    phy::Frame ack;
    ack.dst = receiver_id_;
    ack.psdu_bytes = phy::kAckPsduBytes;
    ack.type = phy::FrameType::kAck;
    sender->send_control(ack);
  });
  scheduler_.run_all();

  EXPECT_GE(sender->counters().cca_backoffs, 1u);
  EXPECT_EQ(sender->counters().cca_failures, 0u);
  EXPECT_EQ(sender->counters().sent, 1u);
  EXPECT_EQ(receiver->counters().received, 1u);
}

TEST_F(CsmaTest, RxHookSeesAllFrames) {
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender = make_sender(cca);
  auto receiver = make_receiver(cca);

  int hook_calls = 0;
  receiver->set_rx_hook([&hook_calls](const phy::RxResult&) { ++hook_calls; });
  int deliveries = 0;
  receiver->set_delivery_hook([&deliveries](const phy::RxResult&) { ++deliveries; });

  // One frame addressed to the receiver, one broadcast overheard.
  sender->enqueue(TxRequest{receiver_id_, 100});
  sender->enqueue(TxRequest{phy::kNoNode, 100});
  scheduler_.run_all();

  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(receiver->counters().received, 1u);  // only the addressed frame
}

TEST_F(CsmaTest, TxPowerIsApplied) {
  FixedCcaThreshold cca{kZigbeeDefaultCcaThreshold};
  auto sender = make_sender(cca);
  auto receiver = make_receiver(cca);

  sender->set_tx_power(phy::Dbm{-10.0});
  double rssi = 0.0;
  receiver->set_delivery_hook([&rssi](const phy::RxResult& rx) { rssi = rx.rssi.value; });
  sender->enqueue(TxRequest{receiver_id_, 100});
  scheduler_.run_all();
  EXPECT_NEAR(rssi, -10.0 - 46.62, 0.1);
}

}  // namespace
}  // namespace nomc::mac
