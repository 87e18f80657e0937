#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

namespace nomc::phy {
namespace {

MediumConfig quiet_config() {
  MediumConfig config;
  config.shadowing_sigma_db = 0.0;  // deterministic RSS for exact assertions
  return config;
}

Frame make_frame(Medium& medium, NodeId src, Mhz channel, Dbm power = Dbm{0.0}) {
  Frame frame;
  frame.id = medium.allocate_frame_id();
  frame.src = src;
  frame.channel = channel;
  frame.tx_power = power;
  frame.psdu_bytes = 100;
  return frame;
}

TEST(Medium, NodeRegistration) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({3.0, 4.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(medium.node_count(), 2u);
  EXPECT_EQ(medium.position(b), (Vec2{3.0, 4.0}));
  medium.set_position(b, {1.0, 1.0});
  EXPECT_EQ(medium.position(b), (Vec2{1.0, 1.0}));
}

TEST(Medium, FrameIdsAreUniqueAndNonZero) {
  Medium medium{quiet_config()};
  const FrameId a = medium.allocate_frame_id();
  const FrameId b = medium.allocate_frame_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST(Medium, RssIsPowerMinusPathLoss) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});  // 1 m => 40 dB loss
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  EXPECT_NEAR(medium.rss(frame, rx).value, -40.0, 1e-9);
}

TEST(Medium, RssDeterministicWithShadowing) {
  MediumConfig config;
  config.shadowing_sigma_db = 2.5;
  Medium medium{config};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 2.0});
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  const double first = medium.rss(frame, rx).value;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(medium.rss(frame, rx).value, first);
}

TEST(Medium, IdleChannelSensesNoiseFloor) {
  Medium medium{quiet_config()};
  const NodeId node = medium.add_node({0.0, 0.0});
  EXPECT_NEAR(medium.sense_energy(node, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, CoChannelSensing) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2460.0}));
  // -40 dBm signal dominates the -95 dBm floor.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -40.0, 0.01);
}

TEST(Medium, InterChannelSensingAppliesSensingCurve) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2463.0}));
  const double expected =
      -40.0 - medium.sensing_rejection().attenuation(Mhz{3.0}).value;  // -70
  // The -95 dBm noise floor adds ~0.014 dB on top of the -70 dBm leak.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, expected, 0.05);
}

TEST(Medium, DecodeInterferenceAppliesDecodeCurve) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2463.0}));
  const double expected = -40.0 - medium.rejection().attenuation(Mhz{3.0}).value;
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, 0).value, expected, 0.05);
}

TEST(Medium, SensingExcludesOwnTransmissions) {
  Medium medium{quiet_config()};
  const NodeId self = medium.add_node({0.0, 0.0});
  medium.begin_tx(make_frame(medium, self, Mhz{2460.0}));
  EXPECT_NEAR(medium.sense_energy(self, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, InterferenceExcludesWantedFrame) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  const Frame wanted = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(wanted);
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, wanted.id).value, -95.0, 1e-9);
  // Without the exclusion the frame dominates.
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, 0).value, -40.0, 0.01);
}

TEST(Medium, EnergySumsLinearly) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, a, Mhz{2460.0}));
  medium.begin_tx(make_frame(medium, b, Mhz{2460.0}));
  // Two -40 dBm signals: +3 dB.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -37.0, 0.05);
}

TEST(Medium, EndTxRemovesEnergy) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(frame);
  EXPECT_EQ(medium.active_count(), 1u);
  medium.end_tx(frame.id);
  EXPECT_EQ(medium.active_count(), 0u);
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, OverlapClassification) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({1.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});

  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).co);

  medium.begin_tx(make_frame(medium, a, Mhz{2460.0}));
  EXPECT_TRUE(medium.overlap(rx, Mhz{2460.0}, 0).co);
  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).inter);

  medium.begin_tx(make_frame(medium, b, Mhz{2463.0}));
  const Medium::Overlap both = medium.overlap(rx, Mhz{2460.0}, 0);
  EXPECT_TRUE(both.co);
  EXPECT_TRUE(both.inter);
}

TEST(Medium, OverlapIgnoresExcludedAndOwnFrames) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  const Frame own = make_frame(medium, rx, Mhz{2460.0});
  const Frame wanted = make_frame(medium, a, Mhz{2460.0});
  medium.begin_tx(own);
  medium.begin_tx(wanted);
  const Medium::Overlap o = medium.overlap(rx, Mhz{2460.0}, wanted.id);
  EXPECT_FALSE(o.co);
  EXPECT_FALSE(o.inter);
}

TEST(Medium, InterOverlapRequiresEnergyAboveNoise) {
  Medium medium{quiet_config()};
  const NodeId far = medium.add_node({300.0, 0.0});  // huge path loss
  const NodeId rx = medium.add_node({0.0, 0.0});
  medium.begin_tx(make_frame(medium, far, Mhz{2463.0}, Dbm{-20.0}));
  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).inter);
}

/// Listener that records the active-set size observed during callbacks,
/// verifying the notify-before-mutate contract.
class RecordingListener : public MediumListener {
 public:
  explicit RecordingListener(Medium& medium) : medium_{medium} {}
  void on_tx_start(const Frame&) override { sizes_at_start.push_back(medium_.active_count()); }
  void on_tx_end(const Frame&) override { sizes_at_end.push_back(medium_.active_count()); }
  std::vector<std::size_t> sizes_at_start;
  std::vector<std::size_t> sizes_at_end;

 private:
  Medium& medium_;
};

TEST(Medium, ListenersSeePreMutationState) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  RecordingListener listener{medium};
  medium.add_listener(&listener, tx);

  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(frame);   // listener sees 0 active (not yet inserted)
  medium.end_tx(frame.id);  // listener sees 1 active (not yet removed)
  ASSERT_EQ(listener.sizes_at_start.size(), 1u);
  ASSERT_EQ(listener.sizes_at_end.size(), 1u);
  EXPECT_EQ(listener.sizes_at_start[0], 0u);
  EXPECT_EQ(listener.sizes_at_end[0], 1u);

  medium.remove_listener(&listener);
  medium.begin_tx(make_frame(medium, tx, Mhz{2460.0}));
  EXPECT_EQ(listener.sizes_at_start.size(), 1u);  // no further callbacks
}

TEST(NodeMap, ClearEmptiesTheMapAndKeepsLookupsExact) {
  // clear() only bumps a generation stamp; entries from the old generation
  // must read as absent and be reusable without breaking probe chains.
  NodeMap<double> map;
  for (std::uint32_t key = 0; key < 100; ++key) {
    const auto [value, inserted] = map.try_emplace(key);
    ASSERT_TRUE(inserted);
    *value = key;
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (std::uint32_t key = 50; key < 150; ++key) {
    const auto [value, inserted] = map.try_emplace(key);
    ASSERT_TRUE(inserted) << key;
    EXPECT_EQ(*value, 0.0);  // value-initialized, not the stale entry's
    *value = 1000.0 + key;
  }
  for (std::uint32_t key = 50; key < 150; ++key) {
    const auto [value, inserted] = map.try_emplace(key);
    ASSERT_FALSE(inserted) << key;
    EXPECT_EQ(*value, 1000.0 + key);
  }
  EXPECT_EQ(map.size(), 100u);
}

// -- Received-power memo ---------------------------------------------------
//
// While a frame is on the air the medium memoizes its RSS and attenuated
// power per receiver. Each test below compares a medium that has answered
// earlier queries with a freshly built one given the same history (same
// nodes, same frame ids, hence the same shadowing draws), with zero
// tolerance: the memo may only make a query faster, never different.

constexpr NodeId kRx = 0;
constexpr Mhz kChannelA{2460.0};
constexpr Mhz kChannelB{2463.0};

MediumConfig shadowed_config() {
  MediumConfig config;
  config.shadowing_sigma_db = 2.5;
  return config;
}

/// Registers a receiver (node 0, at `rx_at`) and two senders, then puts one
/// frame on channel A and one on channel B on the air. With no `frames`
/// given it allocates them on `medium`; pass the returned frames to replay
/// the identical history on another medium.
std::vector<Frame> stage(Medium& medium, std::vector<Frame> frames = {},
                         Vec2 rx_at = {0.0, 0.0}) {
  EXPECT_EQ(medium.add_node(rx_at), kRx);
  const NodeId a = medium.add_node({2.0, 0.0});
  const NodeId b = medium.add_node({0.0, 3.0});
  if (frames.empty()) {
    frames.push_back(make_frame(medium, a, kChannelA));
    frames.push_back(make_frame(medium, b, kChannelB, Dbm{-3.0}));
  }
  for (const Frame& frame : frames) medium.begin_tx(frame);
  return frames;
}

TEST(Medium, MemoKeysOnChannel) {
  // A → B → A at one node: the second query must not reuse the first
  // channel's attenuated terms, nor the third the second's.
  Medium medium{shadowed_config()};
  const std::vector<Frame> frames = stage(medium);
  const double first_a = medium.sense_energy(kRx, kChannelA).value;
  const double on_b = medium.sense_energy(kRx, kChannelB).value;
  const double second_a = medium.sense_energy(kRx, kChannelA).value;

  Medium fresh_a{shadowed_config()};
  stage(fresh_a, frames);
  Medium fresh_b{shadowed_config()};
  stage(fresh_b, frames);
  EXPECT_EQ(first_a, fresh_a.sense_energy(kRx, kChannelA).value);
  EXPECT_EQ(on_b, fresh_b.sense_energy(kRx, kChannelB).value);
  EXPECT_EQ(second_a, first_a);
  EXPECT_NE(on_b, first_a);  // the channels really read differently
}

TEST(Medium, MemoKeepsCurvesApart) {
  // The decode and sensing curves attenuate the adjacent-channel frame
  // differently; a read through one must not answer for the other.
  Medium medium{shadowed_config()};
  const std::vector<Frame> frames = stage(medium);
  const double decode = medium.interference(kRx, kChannelA, 0).value;
  const double sensed = medium.sense_energy(kRx, kChannelA).value;

  Medium fresh_sensed{shadowed_config()};
  stage(fresh_sensed, frames);
  Medium fresh_decode{shadowed_config()};
  stage(fresh_decode, frames);
  EXPECT_EQ(sensed, fresh_sensed.sense_energy(kRx, kChannelA).value);
  EXPECT_EQ(decode, fresh_decode.interference(kRx, kChannelA, 0).value);
  EXPECT_NE(decode, sensed);  // the curves really differ here
}

/// Records rss(frame, rx) as seen from the listener callbacks.
class RssProbe : public MediumListener {
 public:
  RssProbe(Medium& medium, NodeId rx) : medium_{medium}, rx_{rx} {}
  void on_tx_start(const Frame& frame) override { at_start = medium_.rss(frame, rx_).value; }
  void on_tx_end(const Frame& frame) override { at_end = medium_.rss(frame, rx_).value; }
  double at_start = 0.0;
  double at_end = 0.0;

 private:
  Medium& medium_;
  NodeId rx_;
};

TEST(Medium, RssAgreesBeforeInsertionInFlightAndAfterEndTx) {
  // on_tx_start runs before the frame is on the air (computed fresh),
  // in-flight and on_tx_end queries are served from the memo, and a query
  // after end_tx is fresh again: all four must agree with a medium that
  // never saw the frame.
  Medium medium{shadowed_config()};
  const std::vector<Frame> frames = stage(medium);
  RssProbe probe{medium, kRx};
  medium.add_listener(&probe, kRx);
  const Frame frame = make_frame(medium, frames[0].src, kChannelA);
  medium.begin_tx(frame);
  (void)medium.sense_energy(kRx, kChannelA);  // warm the memo
  const double in_flight = medium.rss(frame, kRx).value;
  medium.end_tx(frame.id);
  const double after = medium.rss(frame, kRx).value;
  medium.remove_listener(&probe);

  Medium fresh{shadowed_config()};
  stage(fresh);
  const double expected = fresh.rss(frame, kRx).value;
  EXPECT_EQ(probe.at_start, expected);
  EXPECT_EQ(in_flight, expected);
  EXPECT_EQ(probe.at_end, expected);
  EXPECT_EQ(after, expected);
}

TEST(Medium, RecycledFrameSlotStartsWithAnEmptyMemo) {
  // end_tx frees the frame's pool slot and the next begin_tx reuses it: the
  // new frame, from another sender, must not inherit the old one's memo.
  Medium medium{shadowed_config()};
  const std::vector<Frame> frames = stage(medium);
  (void)medium.sense_energy(kRx, kChannelA);
  (void)medium.interference(kRx, kChannelA, 0);
  medium.end_tx(frames[1].id);
  const Frame next = make_frame(medium, frames[0].src, kChannelB);
  medium.begin_tx(next);

  Medium fresh{shadowed_config()};
  stage(fresh, {frames[0], next});
  EXPECT_EQ(medium.sense_energy(kRx, kChannelA).value, fresh.sense_energy(kRx, kChannelA).value);
  EXPECT_EQ(medium.interference(kRx, kChannelA, 0).value,
            fresh.interference(kRx, kChannelA, 0).value);
  EXPECT_EQ(medium.rss(next, kRx).value, fresh.rss(next, kRx).value);
}

TEST(Medium, ReceiverMotionInvalidatesInFlightMemo) {
  // Warm every query at the receiver, move it while both frames are on the
  // air, and require the answers of a medium built at the new position.
  Medium medium{shadowed_config()};
  const std::vector<Frame> frames = stage(medium);
  for (const Mhz channel : {kChannelA, kChannelB}) {
    (void)medium.sense_energy(kRx, channel);
    (void)medium.interference(kRx, channel, frames[0].id);
    (void)medium.overlap(kRx, channel, 0);
  }
  for (const Frame& frame : frames) (void)medium.rss(frame, kRx);
  const Vec2 moved{25.0, 5.0};
  medium.set_position(kRx, moved);

  Medium fresh{shadowed_config()};
  stage(fresh, frames, moved);
  for (const Mhz channel : {kChannelA, kChannelB}) {
    EXPECT_EQ(medium.sense_energy(kRx, channel).value, fresh.sense_energy(kRx, channel).value);
    EXPECT_EQ(medium.interference(kRx, channel, frames[0].id).value,
              fresh.interference(kRx, channel, frames[0].id).value);
    EXPECT_EQ(medium.overlap(kRx, channel, 0).inter, fresh.overlap(kRx, channel, 0).inter);
    EXPECT_EQ(medium.carrier_present(kRx, channel, Dbm{-60.0}),
              fresh.carrier_present(kRx, channel, Dbm{-60.0}));
  }
  for (const Frame& frame : frames) {
    EXPECT_EQ(medium.rss(frame, kRx).value, fresh.rss(frame, kRx).value);
  }
}

// -- Reception memo (Medium::SumMemo) ---------------------------------------
//
// A reception passes one SumMemo to every interference() query; the memo
// keeps the terms it summed last time. Each query must equal a memo-less
// query on a medium freshly built with the same nodes and the same live
// frames begun in the same order.

/// Receiver (node 0) plus four senders around it.
const std::vector<Vec2> kField{{0.0, 0.0}, {2.0, 0.0}, {0.0, 3.0}, {-4.0, 1.0}, {1.0, -5.0}};

void add_field(Medium& medium, const std::vector<Vec2>& nodes = kField) {
  for (const Vec2 at : nodes) medium.add_node(at);
}

/// Memo-less interference at kRx on a fresh medium with `nodes` whose live
/// set is `live`, begun in that order.
double fresh_interference(const std::vector<Vec2>& nodes, const std::vector<Frame>& live,
                          Mhz channel, FrameId exclude) {
  Medium fresh{shadowed_config()};
  add_field(fresh, nodes);
  for (const Frame& frame : live) fresh.begin_tx(frame);
  return fresh.interference(kRx, channel, exclude).value;
}

void erase_frame(std::vector<Frame>& live, FrameId id) {
  std::erase_if(live, [id](const Frame& f) { return f.id == id; });
}

TEST(Medium, SumMemoFollowsFramesEndingOutOfStartOrder) {
  Medium medium{shadowed_config()};
  add_field(medium);
  const Frame wanted = make_frame(medium, 1, kChannelA);
  const Frame a = make_frame(medium, 2, kChannelB, Dbm{-3.0});
  const Frame b = make_frame(medium, 3, kChannelA, Dbm{-7.0});
  const Frame c = make_frame(medium, 4, Mhz{2466.0}, Dbm{-1.0});
  Medium::SumMemo memo;
  std::vector<Frame> live;
  std::vector<double> seen;
  const auto check = [&](const char* step) {
    const double got = medium.interference(kRx, kChannelA, wanted.id, &memo).value;
    EXPECT_EQ(got, fresh_interference(kField, live, kChannelA, wanted.id)) << step;
    seen.push_back(got);
  };
  medium.begin_tx(wanted);
  live.push_back(wanted);
  check("wanted only");
  medium.begin_tx(a);
  live.push_back(a);
  check("start A");
  medium.begin_tx(b);
  live.push_back(b);
  check("start B");
  medium.end_tx(a.id);
  erase_frame(live, a.id);
  check("end A");
  medium.begin_tx(c);
  live.push_back(c);
  check("start C");
  medium.end_tx(c.id);
  erase_frame(live, c.id);
  check("end C");
  // Every step really changed the sum, except ending C restores "end A".
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_NE(seen[1], seen[2]);
  EXPECT_NE(seen[2], seen[3]);
  EXPECT_NE(seen[3], seen[4]);
  EXPECT_EQ(seen[5], seen[3]);
}

TEST(Medium, SumMemoCatchesUpOnManyChangesBetweenQueries) {
  // Between two queries: a frame that starts and ends unseen (its slot is
  // then reused), several at once, and finally more changes than the
  // medium remembers, so the memo must be rebuilt.
  Medium medium{shadowed_config()};
  add_field(medium);
  const Frame wanted = make_frame(medium, 1, kChannelA);
  Medium::SumMemo memo;
  std::vector<Frame> live{wanted};
  medium.begin_tx(wanted);
  const auto check = [&](const char* step) {
    EXPECT_EQ(medium.interference(kRx, kChannelA, wanted.id, &memo).value,
              fresh_interference(kField, live, kChannelA, wanted.id))
        << step;
  };
  check("wanted only");
  const Frame brief = make_frame(medium, 2, kChannelB);
  medium.begin_tx(brief);
  medium.end_tx(brief.id);
  const Frame reuser = make_frame(medium, 3, kChannelA, Dbm{-4.0});
  medium.begin_tx(reuser);  // takes the brief frame's slot
  live.push_back(reuser);
  const Frame other = make_frame(medium, 4, kChannelB, Dbm{-1.0});
  medium.begin_tx(other);
  live.push_back(other);
  check("unseen frame, reused slot, two starts");
  for (int round = 0; round < 50; ++round) {
    const Frame burst = make_frame(medium, 2, Mhz{2466.0});
    medium.begin_tx(burst);
    medium.end_tx(burst.id);
  }
  medium.end_tx(reuser.id);
  erase_frame(live, reuser.id);
  const Frame last = make_frame(medium, 3, kChannelB, Dbm{-6.0});
  medium.begin_tx(last);
  live.push_back(last);
  check("more changes than the medium keeps");
}

TEST(Medium, SumMemoRestartsOnExcludeOrChannelChange) {
  Medium medium{shadowed_config()};
  add_field(medium);
  std::vector<Frame> live{make_frame(medium, 1, kChannelA), make_frame(medium, 2, kChannelB),
                          make_frame(medium, 3, kChannelA, Dbm{-5.0})};
  for (const Frame& frame : live) medium.begin_tx(frame);
  Medium::SumMemo memo;
  struct Query {
    Mhz channel;
    FrameId exclude;
  };
  // Same channel, another wanted frame (the first query's wanted frame is
  // now an interferer); then another channel; then back.
  const std::vector<Query> queries{{kChannelA, live[0].id}, {kChannelA, live[2].id},
                                   {kChannelB, live[2].id}, {kChannelA, live[0].id},
                                   {kChannelB, live[1].id}};
  for (const Query& q : queries) {
    EXPECT_EQ(medium.interference(kRx, q.channel, q.exclude, &memo).value,
              fresh_interference(kField, live, q.channel, q.exclude))
        << q.channel.value << " / " << q.exclude;
  }
  EXPECT_NE(fresh_interference(kField, live, kChannelA, live[0].id),
            fresh_interference(kField, live, kChannelA, live[2].id));
}

TEST(Medium, SumMemoFollowsMotionMidReception) {
  // Move the receiver, then an in-flight interferer's source, between two
  // queries of one reception.
  Medium medium{shadowed_config()};
  add_field(medium);
  const std::vector<Frame> live{make_frame(medium, 1, kChannelA),
                                make_frame(medium, 2, kChannelB, Dbm{-2.0}),
                                make_frame(medium, 3, kChannelA, Dbm{-6.0})};
  for (const Frame& frame : live) medium.begin_tx(frame);
  Medium::SumMemo memo;
  std::vector<Vec2> nodes = kField;
  const FrameId wanted = live[0].id;
  const double before = medium.interference(kRx, kChannelA, wanted, &memo).value;
  EXPECT_EQ(before, fresh_interference(nodes, live, kChannelA, wanted));

  nodes[kRx] = {1.5, 1.0};
  medium.set_position(kRx, nodes[kRx]);
  const double rx_moved = medium.interference(kRx, kChannelA, wanted, &memo).value;
  EXPECT_EQ(rx_moved, fresh_interference(nodes, live, kChannelA, wanted));
  EXPECT_NE(rx_moved, before);

  nodes[live[2].src] = {6.0, 6.0};
  medium.set_position(live[2].src, nodes[live[2].src]);
  const double src_moved = medium.interference(kRx, kChannelA, wanted, &memo).value;
  EXPECT_EQ(src_moved, fresh_interference(nodes, live, kChannelA, wanted));
  EXPECT_NE(src_moved, rx_moved);
}

TEST(Medium, SumMemoReusedAcrossReceptions) {
  // A radio keeps one memo and clears it when it locks onto the next frame.
  Medium medium{shadowed_config()};
  add_field(medium);
  const Frame first = make_frame(medium, 1, kChannelA);
  const Frame interferer = make_frame(medium, 2, kChannelB);
  const Frame second = make_frame(medium, 3, kChannelA, Dbm{-4.0});
  Medium::SumMemo memo;
  medium.begin_tx(first);
  medium.begin_tx(interferer);
  EXPECT_EQ(medium.interference(kRx, kChannelA, first.id, &memo).value,
            fresh_interference(kField, {first, interferer}, kChannelA, first.id));
  medium.end_tx(first.id);
  memo.clear();
  medium.begin_tx(second);
  EXPECT_EQ(medium.interference(kRx, kChannelA, second.id, &memo).value,
            fresh_interference(kField, {interferer, second}, kChannelA, second.id));
  medium.end_tx(interferer.id);
  EXPECT_EQ(medium.interference(kRx, kChannelA, second.id, &memo).value,
            fresh_interference(kField, {second}, kChannelA, second.id));
}

/// In on_tx_start: reads the starting frame's RSS, the sensed energy and
/// the memo-assisted interference, then optionally moves the receiver and
/// reads the RSS again.
class StartProbe : public MediumListener {
 public:
  StartProbe(Medium& medium, Medium::SumMemo& memo, FrameId wanted, std::optional<Vec2> move_to)
      : medium_{medium}, memo_{memo}, wanted_{wanted}, move_to_{move_to} {}
  void on_tx_start(const Frame& frame) override {
    rss = medium_.rss(frame, kRx).value;
    sensed = medium_.sense_energy(kRx, kChannelA).value;
    interference = medium_.interference(kRx, kChannelA, wanted_, &memo_).value;
    if (move_to_) {
      medium_.set_position(kRx, *move_to_);
      rss_after_move = medium_.rss(frame, kRx).value;
    }
  }
  void on_tx_end(const Frame&) override {}
  double rss = 0.0;
  double sensed = 0.0;
  double interference = 0.0;
  double rss_after_move = 0.0;

 private:
  Medium& medium_;
  Medium::SumMemo& memo_;
  FrameId wanted_;
  std::optional<Vec2> move_to_;
};

TEST(Medium, StartingFrameIsReadableOnlyThroughRss) {
  // begin_tx reserves the frame's slot before notifying: rss() in the
  // callback is served (and memoized) from it, but no sum sees the frame
  // before insertion.
  Medium medium{shadowed_config()};
  add_field(medium);
  const Frame wanted = make_frame(medium, 1, kChannelA);
  medium.begin_tx(wanted);
  Medium::SumMemo memo;
  const double sensed_before = medium.sense_energy(kRx, kChannelA).value;
  const double interference_before = medium.interference(kRx, kChannelA, wanted.id, &memo).value;
  const Frame starting = make_frame(medium, 2, kChannelA, Dbm{-2.0});
  StartProbe probe{medium, memo, wanted.id, std::nullopt};
  medium.add_listener(&probe, kRx);
  medium.begin_tx(starting);
  medium.remove_listener(&probe);

  Medium fresh{shadowed_config()};
  add_field(fresh);
  EXPECT_EQ(probe.rss, fresh.rss(starting, kRx).value);
  EXPECT_EQ(probe.sensed, sensed_before);
  EXPECT_EQ(probe.interference, interference_before);
  // Inserted now: the memo-filled RSS serves the sums.
  EXPECT_EQ(medium.rss(starting, kRx).value, probe.rss);
  EXPECT_EQ(medium.interference(kRx, kChannelA, wanted.id, &memo).value,
            fresh_interference(kField, {wanted, starting}, kChannelA, wanted.id));
  EXPECT_GT(medium.sense_energy(kRx, kChannelA).value, sensed_before);
}

TEST(Medium, MotionClearsAReservedFramesMemo) {
  // The receiver moves inside on_tx_start, after rss() filled the reserved
  // slot's memo: later reads must use the new position.
  Medium medium{shadowed_config()};
  add_field(medium);
  const Frame wanted = make_frame(medium, 1, kChannelA);
  medium.begin_tx(wanted);
  Medium::SumMemo memo;
  const Frame starting = make_frame(medium, 2, kChannelA, Dbm{-2.0});
  const Vec2 moved{-3.0, -2.0};
  StartProbe probe{medium, memo, wanted.id, moved};
  medium.add_listener(&probe, kRx);
  medium.begin_tx(starting);
  medium.remove_listener(&probe);

  std::vector<Vec2> nodes = kField;
  nodes[kRx] = moved;
  Medium fresh{shadowed_config()};
  add_field(fresh, nodes);
  EXPECT_EQ(probe.rss_after_move, fresh.rss(starting, kRx).value);
  EXPECT_NE(probe.rss_after_move, probe.rss);
  EXPECT_EQ(medium.rss(starting, kRx).value, probe.rss_after_move);
  EXPECT_EQ(medium.interference(kRx, kChannelA, wanted.id, &memo).value,
            fresh_interference(nodes, {wanted, starting}, kChannelA, wanted.id));
}

}  // namespace
}  // namespace nomc::phy
