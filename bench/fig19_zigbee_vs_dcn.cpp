// Paper Fig. 19: the headline comparison. Given a 15 MHz band
// (2458-2473 MHz):
//   * default ZigBee design: 4 channels at CFD=5 MHz, fixed -77 dBm CCA;
//   * the paper's design: 6 channels at CFD=3 MHz, DCN on every network.
// The paper reports ~58 % overall throughput improvement, with each DCN
// network also individually beating its ZigBee counterpart.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Fig. 19", "Overall throughput: default ZigBee (4ch @ 5MHz, fixed CCA) "
                                 "vs DCN design (6ch @ 3MHz) on a 15 MHz band");

  const auto zigbee_channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{5.0}, 4);
  const auto dcn_channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);

  const bench::BandResult zigbee = bench::run_band(zigbee_channels, net::Scheme::kFixedCca);
  const bench::BandResult dcn = bench::run_band(dcn_channels, net::Scheme::kDcn);

  stats::TablePrinter table{{"design", "channels", "overall (pkt/s)", "mean/network (pkt/s)"}};
  table.add_row({"ZigBee default", std::to_string(zigbee_channels.size()),
                 bench::pps(zigbee.overall_pps),
                 bench::pps(zigbee.overall_pps / static_cast<double>(zigbee_channels.size()))});
  table.add_row({"DCN (CFD=3MHz)", std::to_string(dcn_channels.size()),
                 bench::pps(dcn.overall_pps),
                 bench::pps(dcn.overall_pps / static_cast<double>(dcn_channels.size()))});
  table.print();

  std::printf("\nPer-network breakdown:\n");
  stats::TablePrinter detail{{"network", "ZigBee (pkt/s)", "DCN (pkt/s)"}};
  const std::size_t rows = std::max(zigbee.per_network_pps.size(), dcn.per_network_pps.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::string network = "N";
    network += std::to_string(i);
    detail.add_row({network,
                    i < zigbee.per_network_pps.size() ? bench::pps(zigbee.per_network_pps[i]) : "-",
                    i < dcn.per_network_pps.size() ? bench::pps(dcn.per_network_pps[i]) : "-"});
  }
  detail.print();

  const double gain = zigbee.overall_pps > 0.0
                          ? (dcn.overall_pps - zigbee.overall_pps) / zigbee.overall_pps
                          : 0.0;
  std::printf("\nOverall improvement: %.1f%% (paper: ~58%%)\n", 100.0 * gain);
  return 0;
}
