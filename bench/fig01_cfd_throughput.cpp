// Paper Fig. 1: aggregate throughput of a 12 MHz band packed at different
// channel frequency distances, under the DEFAULT ZigBee MAC (fixed −77 dBm
// CCA). The paper's observations to reproduce:
//   * orthogonal CFD=9 MHz wastes the band (1 channel),
//   * ZigBee's CFD=5 MHz is conservative,
//   * throughput peaks at CFD=3 MHz,
//   * CFD=2 MHz declines again — inter-channel interference bites.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Fig. 1", "Bandwidth throughput vs channel frequency distance "
                                "(12 MHz band, default ZigBee CCA = -77 dBm)");

  stats::TablePrinter table{{"CFD (MHz)", "channels", "overall (pkt/s)", "per-network (pkt/s)"}};
  double best_cfd = 0.0;
  double best_pps = -1.0;
  sim::ParallelRunner runner{1};
  for (const double cfd : {9.0, 5.0, 4.0, 3.0, 2.0}) {
    const auto channels = bench::motivation_channels(cfd);
    exp::PointParams params;
    params.scheme = "fixed";
    params.cfd_mhz = cfd;
    params.channels = static_cast<int>(channels.size());
    params.power_dbm = 0.0;
    const exp::PointResult result = exp::run_point(params, runner);

    std::string per_network;
    for (double v : result.pps) {
      if (!per_network.empty()) per_network += " ";
      per_network += stats::TablePrinter::num(v, 0);
    }
    table.add_row({stats::TablePrinter::num(cfd, 0),
                   std::to_string(channels.size()),
                   bench::pps(result.overall_pps), per_network});
    if (result.overall_pps > best_pps) {
      best_pps = result.overall_pps;
      best_cfd = cfd;
    }
  }
  table.print();
  std::printf("\nBest CFD: %.0f MHz (paper: 3 MHz)\n", best_cfd);
  return 0;
}
