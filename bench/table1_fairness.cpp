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
#include "stats/fairness.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Table I", "Per-network throughput fairness under DCN "
                                 "(6 networks, CFD=3 MHz, 15 MHz band)");

  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);
  bench::BandRunParams params;
  params.trials = 5;
  const bench::BandResult result = bench::run_band(channels, net::Scheme::kDcn, params);

  stats::TablePrinter table{{"network", "throughput (pkt/s)"}};
  for (std::size_t i = 0; i < result.per_network_pps.size(); ++i) {
    std::string network = "N";
    network += std::to_string(i);
    table.add_row({network, bench::pps(result.per_network_pps[i])});
  }
  table.print();
  std::printf("\nRelative spread: %.1f%% (paper: ~4%%)   Jain index: %.3f\n",
              100.0 * stats::relative_spread(result.per_network_pps),
              stats::jain_index(result.per_network_pps));

  std::printf("\nAblation — CCA-Adjustor safety margin:\n");
  stats::TablePrinter ablation{{"margin (dB)", "overall (pkt/s)", "spread", "Jain"}};
  for (const double margin : {0.0, 2.0, 4.0, 8.0}) {
    double overall = 0.0;
    std::vector<double> per(channels.size(), 0.0);
    for (int trial = 0; trial < params.trials; ++trial) {
      const std::uint64_t seed = params.seed + static_cast<std::uint64_t>(trial) * 1000003;
      sim::RandomStream placement{seed, 999};
      const auto specs = net::case1_dense(channels, placement, params.topology);
      net::ScenarioConfig config;
      config.seed = seed;
      config.dcn.safety_margin = phy::Db{margin};
      net::Scenario scenario{config};
      scenario.add_networks(specs, net::Scheme::kDcn);
      scenario.run(params.warmup, params.measure);
      overall += scenario.overall_throughput();
      const auto pps = scenario.network_throughputs();
      for (std::size_t i = 0; i < per.size(); ++i) per[i] += pps[i];
    }
    for (double& v : per) v /= params.trials;
    ablation.add_row({stats::TablePrinter::num(margin, 0),
                      bench::pps(overall / params.trials),
                      bench::pct(stats::relative_spread(per)),
                      stats::TablePrinter::num(stats::jain_index(per), 3)});
  }
  ablation.print();
  return 0;
}
