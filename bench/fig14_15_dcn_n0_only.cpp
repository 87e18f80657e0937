// Paper Figs. 14-15: apply DCN only on network N0 (the median-frequency
// network of five) and compare against the all-fixed baseline, for
// CFD = 2 and 3 MHz.
//
// Expected shape: N0's throughput improves substantially (paper: ~27 %) —
// it stops deferring to its neighbours' inter-channel energy; the OTHER
// four networks (still on the fixed threshold) lose a little (paper: ~5 %)
// because N0's increased airtime is extra energy in their CCA reads.
//
// Secondary table: ablation of DCN's updating window T_U on the same
// scenario (DESIGN.md §8).
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace nomc;

constexpr int kMedian = 2;  // N0 = the median-frequency network (Fig. 13)

/// Five networks at `cfd_mhz`, fixed CCA everywhere except DCN on N0, with
/// DCN's updating window set to `t_update`.
exp::PointResult run_dcn_on_n0(double cfd_mhz, sim::SimTime t_update,
                               sim::ParallelRunner& runner) {
  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{cfd_mhz}, 5);
  const auto topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0});
  const exp::PointParams defaults;
  return exp::run_trials(defaults.trials, defaults.seed, runner, [&](int, std::uint64_t seed) {
    sim::RandomStream placement{seed, /*index=*/999};
    const auto specs = net::case1_dense(channels, placement, topology);
    net::ScenarioConfig config;
    config.seed = seed;
    config.dcn.t_update = t_update;
    net::Scenario scenario{config};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const int n = scenario.add_network(specs[i].channel, static_cast<int>(i) == kMedian
                                                               ? net::Scheme::kDcn
                                                               : net::Scheme::kFixedCca);
      for (const net::LinkSpec& link : specs[i].links) scenario.add_link(n, link);
    }
    scenario.run(sim::SimTime::seconds(defaults.warmup_s),
                 sim::SimTime::seconds(defaults.measure_s));
    return exp::collect_trial(scenario, defaults.measure_s);
  });
}

/// Total throughput of every network but N0.
double others(const exp::PointResult& result) {
  double total = 0.0;
  for (std::size_t i = 0; i < result.pps.size(); ++i) {
    if (static_cast<int>(i) != kMedian) total += result.pps[i];
  }
  return total;
}

}  // namespace

int main() {
  bench::print_header("Figs. 14-15", "DCN applied only on the median network N0 "
                                     "(5 networks, CFD = 2 and 3 MHz)");

  stats::TablePrinter table{{"CFD (MHz)", "N0 w/o (pkt/s)", "N0 with (pkt/s)", "N0 gain",
                             "others w/o", "others with", "others change"}};
  sim::ParallelRunner runner{1};
  const sim::SimTime default_t_update = dcn::DcnConfig{}.t_update;
  for (const double cfd : {2.0, 3.0}) {
    exp::PointParams all_fixed;
    all_fixed.scheme = "fixed";
    all_fixed.cfd_mhz = cfd;
    all_fixed.channels = 5;
    all_fixed.power_dbm = 0.0;
    const exp::PointResult without = exp::run_point(all_fixed, runner);
    const exp::PointResult with = run_dcn_on_n0(cfd, default_t_update, runner);
    table.add_row({stats::TablePrinter::num(cfd, 0), bench::pps(without.pps[kMedian]),
                   bench::pps(with.pps[kMedian]),
                   bench::pct(with.pps[kMedian] / without.pps[kMedian] - 1.0),
                   bench::pps(others(without)), bench::pps(others(with)),
                   bench::pct(others(with) / others(without) - 1.0)});
  }
  table.print();
  std::printf("\nPaper: N0 gains ~27%% at both CFDs; other networks lose ~5%%.\n");

  // Ablation: the updating window T_U (CFD = 3 MHz scenario).
  std::printf("\nAblation — updating window T_U (CFD=3 MHz, DCN on N0):\n");
  stats::TablePrinter ablation{{"T_U (s)", "N0 with DCN (pkt/s)"}};
  for (const double tu : {1.0, 3.0, 6.0, 12.0}) {
    const exp::PointResult result = run_dcn_on_n0(3.0, sim::SimTime::seconds(tu), runner);
    ablation.add_row({stats::TablePrinter::num(tu, 0), bench::pps(result.pps[kMedian])});
  }
  ablation.print();
  return 0;
}
