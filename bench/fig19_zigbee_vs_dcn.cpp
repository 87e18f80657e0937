// Paper Fig. 19: the headline comparison. Given a 15 MHz band
// (2458-2473 MHz):
//   * default ZigBee design: 4 channels at CFD=5 MHz, fixed -77 dBm CCA;
//   * the paper's design: 6 channels at CFD=3 MHz, DCN on every network.
// The paper reports ~58 % overall throughput improvement, with each DCN
// network also individually beating its ZigBee counterpart.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "sim/parallel.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Fig. 19", "Overall throughput: default ZigBee (4ch @ 5MHz, fixed CCA) "
                                 "vs DCN design (6ch @ 3MHz) on a 15 MHz band");

  exp::PointParams zigbee_params;
  zigbee_params.scheme = "fixed";
  zigbee_params.cfd_mhz = 5.0;
  zigbee_params.channels = 4;
  zigbee_params.power_dbm = 0.0;
  exp::PointParams dcn_params;
  dcn_params.scheme = "dcn";
  dcn_params.cfd_mhz = 3.0;
  dcn_params.channels = 6;
  dcn_params.power_dbm = 0.0;

  sim::ParallelRunner runner{1};
  const exp::PointResult zigbee = exp::run_point(zigbee_params, runner);
  const exp::PointResult dcn = exp::run_point(dcn_params, runner);

  stats::TablePrinter table{{"design", "channels", "overall (pkt/s)", "mean/network (pkt/s)"}};
  table.add_row({"ZigBee default", std::to_string(zigbee.pps.size()),
                 bench::pps(zigbee.overall_pps),
                 bench::pps(zigbee.overall_pps / static_cast<double>(zigbee.pps.size()))});
  table.add_row({"DCN (CFD=3MHz)", std::to_string(dcn.pps.size()), bench::pps(dcn.overall_pps),
                 bench::pps(dcn.overall_pps / static_cast<double>(dcn.pps.size()))});
  table.print();

  std::printf("\nPer-network breakdown:\n");
  stats::TablePrinter detail{{"network", "ZigBee (pkt/s)", "DCN (pkt/s)"}};
  const std::size_t rows = std::max(zigbee.pps.size(), dcn.pps.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::string network = "N";
    network += std::to_string(i);
    detail.add_row({network, i < zigbee.pps.size() ? bench::pps(zigbee.pps[i]) : "-",
                    i < dcn.pps.size() ? bench::pps(dcn.pps[i]) : "-"});
  }
  detail.print();

  const double gain = zigbee.overall_pps > 0.0
                          ? (dcn.overall_pps - zigbee.overall_pps) / zigbee.overall_pps
                          : 0.0;
  std::printf("\nOverall improvement: %.1f%% (paper: ~58%%)\n", 100.0 * gain);
  return 0;
}
