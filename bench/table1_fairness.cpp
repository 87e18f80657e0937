// Paper Table I: fairness of DCN across the six networks of the 15 MHz
// band. The middle networks face the most inter-channel interference, the
// edge networks the least, yet the paper measures only ~4 % throughput
// spread — DCN does not drive any network against the others.
//
// Secondary table: ablation of the CCA-Adjustor's safety margin
// (DESIGN.md §8) — how far below the minimum co-channel RSSI the threshold
// is parked.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "stats/fairness.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Table I", "Per-network throughput fairness under DCN "
                                 "(6 networks, CFD=3 MHz, 15 MHz band)");

  exp::PointParams params;
  params.scheme = "dcn";
  params.cfd_mhz = 3.0;
  params.channels = 6;
  params.power_dbm = 0.0;
  params.trials = 5;
  sim::ParallelRunner runner{1};
  const exp::PointResult result = exp::run_point(params, runner);

  stats::TablePrinter table{{"network", "throughput (pkt/s)"}};
  for (std::size_t i = 0; i < result.pps.size(); ++i) {
    std::string network = "N";
    network += std::to_string(i);
    table.add_row({network, bench::pps(result.pps[i])});
  }
  table.print();
  std::printf("\nRelative spread: %.1f%% (paper: ~4%%)   Jain index: %.3f\n",
              100.0 * stats::relative_spread(result.pps), result.jain);

  std::printf("\nAblation — CCA-Adjustor safety margin:\n");
  stats::TablePrinter ablation{{"margin (dB)", "overall (pkt/s)", "spread", "Jain"}};
  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{params.cfd_mhz},
                                           params.channels);
  const auto topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{*params.power_dbm});
  for (const double margin : {0.0, 2.0, 4.0, 8.0}) {
    const exp::PointResult with_margin =
        exp::run_trials(params.trials, params.seed, runner, [&](int, std::uint64_t seed) {
          sim::RandomStream placement{seed, /*index=*/999};
          const auto specs = net::case1_dense(channels, placement, topology);
          net::ScenarioConfig config;
          config.seed = seed;
          config.dcn.safety_margin = phy::Db{margin};
          net::Scenario scenario{config};
          scenario.add_networks(specs, net::Scheme::kDcn);
          scenario.run(sim::SimTime::seconds(params.warmup_s),
                       sim::SimTime::seconds(params.measure_s));
          return exp::collect_trial(scenario, params.measure_s);
        });
    ablation.add_row({stats::TablePrinter::num(margin, 0), bench::pps(with_margin.overall_pps),
                      bench::pct(stats::relative_spread(with_margin.pps)),
                      stats::TablePrinter::num(with_margin.jain, 3)});
  }
  ablation.print();
  return 0;
}
