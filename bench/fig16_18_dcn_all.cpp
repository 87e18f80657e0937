// Paper Figs. 16-18: apply DCN on ALL 5 networks, for CFD = 2 and 3 MHz.
//
// Expected shape:
//   * every network improves over its fixed-CCA self (Figs. 16-17) — the
//     scheme collaborates rather than fighting itself;
//   * middle-of-band networks gain most (they had the most inter-channel
//     interference to stop deferring to), edge networks least (paper: N4 at
//     the band edge gains 4.6 % vs N0's 16.5 % at CFD=3);
//   * overall, CFD=3 MHz clearly beats CFD=2 MHz (Fig. 18; paper: 1.37x),
//     which is why DCN's final design uses CFD=3.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Figs. 16-18", "DCN on all 5 networks: per-network and overall "
                                     "throughput, CFD = 2 and 3 MHz");

  sim::ParallelRunner runner{1};
  double overall_with[2] = {0.0, 0.0};
  int idx = 0;
  for (const double cfd : {2.0, 3.0}) {
    exp::PointParams params;
    params.cfd_mhz = cfd;
    params.channels = 5;
    params.power_dbm = 0.0;
    params.scheme = "fixed";
    const exp::PointResult without = exp::run_point(params, runner);
    params.scheme = "dcn";
    const exp::PointResult with = exp::run_point(params, runner);
    overall_with[idx++] = with.overall_pps;

    std::printf("CFD = %.0f MHz (Fig. %d):\n", cfd, cfd == 2.0 ? 16 : 17);
    stats::TablePrinter table{{"network", "w/o scheme (pkt/s)", "with DCN (pkt/s)", "gain"}};
    for (std::size_t i = 0; i < without.pps.size(); ++i) {
      std::string network = "N";
      network += std::to_string(i);
      table.add_row({network, bench::pps(without.pps[i]), bench::pps(with.pps[i]),
                     bench::pct(with.pps[i] / without.pps[i] - 1.0)});
    }
    table.add_row({"overall", bench::pps(without.overall_pps), bench::pps(with.overall_pps),
                   bench::pct(with.overall_pps / without.overall_pps - 1.0)});
    table.print();
    std::printf("\n");
  }

  std::printf("Fig. 18 — overall with DCN: CFD=3MHz / CFD=2MHz = %.2fx (paper: 1.37x)\n",
              overall_with[1] / overall_with[0]);
  return 0;
}
