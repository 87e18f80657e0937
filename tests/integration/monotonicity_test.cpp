// System-level property sweeps: quantities that must vary monotonically
// with their driving parameter, across the full stack.
#include <gtest/gtest.h>

#include "exp/campaign.hpp"
#include "mac/attacker.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "sim/parallel.hpp"

namespace nomc {
namespace {

/// Victim link PRR as a function of the attacker's distance from the
/// victim receiver (co-channel, CS disabled on the attacker).
double prr_at_attacker_distance(double attacker_distance_m, std::uint64_t seed) {
  sim::Scheduler scheduler;
  phy::MediumConfig config;
  config.seed = seed;
  phy::Medium medium{config};

  const phy::NodeId tx = medium.add_node({0.0, 0.0});
  const phy::NodeId rx = medium.add_node({0.0, 4.0});
  const phy::NodeId attacker = medium.add_node({attacker_distance_m, 4.0});
  phy::RadioConfig radio_config;
  radio_config.channel = phy::Mhz{2460.0};
  phy::Radio tx_radio{scheduler, medium, sim::RandomStream{seed, 0}, tx, radio_config};
  phy::Radio rx_radio{scheduler, medium, sim::RandomStream{seed, 1}, rx, radio_config};
  phy::Radio attacker_radio{scheduler, medium, sim::RandomStream{seed, 2}, attacker,
                            radio_config};

  mac::AttackerMac sender{scheduler, medium, tx_radio};
  mac::AttackerMac receiver{scheduler, medium, rx_radio};
  mac::AttackerMac jammer{scheduler, medium, attacker_radio};
  sender.start(rx, 100, sim::SimTime::milliseconds(5));
  jammer.start(phy::kNoNode, 60, sim::SimTime::milliseconds(3));
  scheduler.run_until(sim::SimTime::seconds(10.0));

  const auto& counters = receiver.counters();
  const auto attempted = sender.counters().sent;
  return attempted == 0 ? 0.0
                        : static_cast<double>(counters.received) /
                              static_cast<double>(attempted);
}

TEST(Monotonicity, PrrImprovesAsJammerRetreats) {
  // Not strictly monotone sample-by-sample (finite run), so compare coarse
  // steps: each 4x distance step must not hurt.
  const double near = prr_at_attacker_distance(1.0, 3);
  const double mid = prr_at_attacker_distance(8.0, 3);
  // "far" must be below the -94 dBm lock sensitivity (PL > 94 dB plus shadowing margin),
  // or the receiver still wastes time locked onto jammer frames.
  const double far = prr_at_attacker_distance(1000.0, 3);
  EXPECT_LT(near, 0.4);  // on top of the receiver: nearly everything dies
  EXPECT_GT(mid, near + 0.1);
  EXPECT_GT(far, 0.9);  // out of lock range: clean link
  EXPECT_GE(far, mid - 0.02);
}

/// Overall throughput as a function of how many networks share the band —
/// adding a channel may help or saturate, but never collapses the total.
TEST(Monotonicity, ThroughputNonCollapsingInChannelCount) {
  double previous = 0.0;
  for (int count = 1; count <= 6; ++count) {
    net::ScenarioConfig config;
    config.seed = 11;
    net::Scenario scenario{config};
    const auto channels = phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{3.0}, count);
    net::RandomCaseConfig topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0});
    sim::RandomStream placement{11, 999};
    scenario.add_networks(net::case1_dense(channels, placement, topology),
                          net::Scheme::kDcn);
    scenario.run(sim::SimTime::seconds(2.0), sim::SimTime::seconds(4.0));
    const double overall = scenario.overall_throughput();
    EXPECT_GT(overall, previous * 0.95) << "at " << count << " channels";
    previous = overall;
  }
}

/// A single link's throughput falls as its PSDU grows (fewer frames/s), but
/// its byte throughput rises (less per-frame overhead).
TEST(Monotonicity, FrameSizeTradeoff) {
  double prev_pps = 1e9;
  double prev_bps = 0.0;
  for (const int psdu : {20, 40, 80, 120}) {
    net::ScenarioConfig config;
    config.psdu_bytes = psdu;
    net::Scenario scenario{config};
    const int n = scenario.add_network(phy::Mhz{2460.0}, net::Scheme::kFixedCca);
    net::LinkSpec link;
    link.sender_pos = {0.0, 0.0};
    link.receiver_pos = {0.0, 2.0};
    scenario.add_link(n, link);
    scenario.run(sim::SimTime::seconds(1.0), sim::SimTime::seconds(4.0));
    const double pps = scenario.network_result(n).throughput_pps;
    const double bps = pps * psdu;
    EXPECT_LT(pps, prev_pps) << "psdu " << psdu;
    EXPECT_GT(bps, prev_bps) << "psdu " << psdu;
    prev_pps = pps;
    prev_bps = bps;
  }
}

/// DCN's gain over fixed CCA shrinks as networks move apart (less to stop
/// deferring to) — the Case I -> II -> III mechanism as a parametric sweep.
TEST(Monotonicity, DcnGainShrinksWithSeparation) {
  auto gain_at_spacing = [](double room_spacing) {
    const auto channels = phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{3.0}, 4);
    net::RandomCaseConfig topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0});
    topology.region_m = 1.0;
    topology.room_spacing_m = room_spacing;
    sim::ParallelRunner runner{1};
    auto overall = [&](net::Scheme scheme) {
      const exp::TrialBody body = [&](int, std::uint64_t seed) {
        net::ScenarioConfig config;
        config.seed = seed;
        net::Scenario scenario{config};
        sim::RandomStream placement{seed, 999};
        scenario.add_networks(net::case2_clustered(channels, placement, topology), scheme);
        scenario.run(sim::SimTime::seconds(2.0), sim::SimTime::seconds(4.0));
        return exp::collect_trial(scenario, 4.0);
      };
      return exp::run_trials(/*trials=*/2, /*base_seed=*/5, runner, body).overall_pps;
    };
    return overall(net::Scheme::kDcn) / overall(net::Scheme::kFixedCca) - 1.0;
  };

  const double tight = gain_at_spacing(1.6);
  const double loose = gain_at_spacing(12.0);
  EXPECT_GT(tight, loose + 0.02);
  EXPECT_LT(loose, 0.05);  // fully separated rooms: nothing to gain
}

}  // namespace
}  // namespace nomc
