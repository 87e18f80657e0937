// Paper Figs. 20-21: impact of transmission power on DCN. Six networks at
// CFD=3 MHz (15 MHz band), DCN everywhere; the central network N0's senders
// sweep their TX power from -33 dBm to 0 dBm while every other node stays
// at full power.
//
// Expected shape:
//   * N0's throughput grows with its power (Fig. 20) in two regimes: below
//     ~-15 dBm better SINR lifts PRR; above it, the louder co-channel
//     packets let N0's CCA-Adjustors settle HIGHER thresholds (Eq. 4), which
//     unlocks more inter-channel concurrency;
//   * the other networks are not hurt by N0's power growth (Fig. 21) —
//     CFD=3 MHz tolerates the interference.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Figs. 20-21", "DCN under asymmetric power: central network N0 sweeps "
                                     "TX power, others at 0 dBm (6 networks, CFD=3 MHz)");

  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);
  const auto topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0});
  const int central = 3;  // central-frequency network ("N0" in the paper)
  const exp::PointParams defaults;
  sim::ParallelRunner runner{1};

  stats::TablePrinter table{{"N0 power (dBm)", "N0 (pkt/s)", "N0 PRR", "others total (pkt/s)"}};
  for (const double power : {-33.0, -22.0, -15.0, -11.0, -6.0, -3.0, 0.0}) {
    const exp::PointResult result =
        exp::run_trials(defaults.trials, defaults.seed, runner, [&](int, std::uint64_t seed) {
          sim::RandomStream placement{seed, /*index=*/999};
          auto specs = net::case1_dense(channels, placement, topology);
          for (net::LinkSpec& link : specs[central].links) link.tx_power = phy::Dbm{power};
          net::ScenarioConfig config;
          config.seed = seed;
          net::Scenario scenario{config};
          scenario.add_networks(specs, net::Scheme::kDcn);
          scenario.run(sim::SimTime::seconds(defaults.warmup_s),
                       sim::SimTime::seconds(defaults.measure_s));
          return exp::collect_trial(scenario, defaults.measure_s);
        });
    table.add_row({stats::TablePrinter::num(power, 0), bench::pps(result.pps[central]),
                   bench::pct(result.prr[central]),
                   bench::pps(result.overall_pps - result.pps[central])});
  }
  table.print();
  std::printf("\nPaper: N0 grows with power (PRR-limited below ~-15 dBm, CCA-relaxation-"
              "limited above); other networks are unaffected at CFD=3 MHz.\n");
  return 0;
}
