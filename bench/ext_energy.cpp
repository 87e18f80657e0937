// EXTENSION (not a paper figure): energy efficiency of the three designs.
//
// The paper argues DCN from throughput alone; a deployment engineer also
// asks what it does to the battery. Saturated motes spend their charge on
// TX airtime plus RX/idle listening; a sender stalled in backoff listens
// without delivering, so the fixed CCA's wasted deferrals show up directly
// as energy per delivered packet. This bench reports mJ per delivered
// packet for ZigBee, CFD=3 without DCN, and CFD=3 with DCN on the dense
// evaluation deployment.
#include <cstdio>
#include <span>
#include <vector>

#include "common.hpp"
#include "net/scenario.hpp"
#include "net/topology.hpp"

namespace {

using namespace nomc;

struct EnergyResult {
  double throughput_pps = 0.0;
  double mj_per_packet = 0.0;
};

EnergyResult run_design(std::span<const phy::Mhz> channels, net::Scheme scheme,
                        int links_per_network, std::uint64_t seed) {
  net::RandomCaseConfig topology = net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0});
  topology.links_per_network = links_per_network;
  net::ScenarioConfig config;
  config.seed = seed;
  net::Scenario scenario{config};
  sim::RandomStream placement{seed, 999};
  scenario.add_networks(net::case1_dense(channels, placement, topology), scheme);

  const sim::SimTime warmup = sim::SimTime::seconds(2.0);
  const sim::SimTime measure = sim::SimTime::seconds(8.0);

  // Snapshot every radio's consumption at the start of the measurement
  // window so warm-up energy is excluded, mirroring the throughput window.
  std::vector<double> baseline_mj;
  scenario.scheduler().schedule_at(warmup, [&] {
    for (int n = 0; n < scenario.network_count(); ++n) {
      for (int l = 0; l < scenario.link_count(n); ++l) {
        baseline_mj.push_back(scenario.sender_radio(n, l).energy_consumed().total_mj());
        baseline_mj.push_back(scenario.receiver_radio(n, l).energy_consumed().total_mj());
      }
    }
  });
  scenario.run(warmup, measure);

  double total_mj = 0.0;
  std::size_t i = 0;
  double delivered = 0.0;
  for (int n = 0; n < scenario.network_count(); ++n) {
    for (int l = 0; l < scenario.link_count(n); ++l) {
      total_mj += scenario.sender_radio(n, l).energy_consumed().total_mj() - baseline_mj[i++];
      total_mj += scenario.receiver_radio(n, l).energy_consumed().total_mj() - baseline_mj[i++];
    }
    delivered += scenario.network_result(n).throughput_pps * measure.to_seconds();
  }

  EnergyResult result;
  result.throughput_pps = scenario.overall_throughput();
  result.mj_per_packet = delivered > 0.0 ? total_mj / delivered : 0.0;
  return result;
}

}  // namespace

int main() {
  bench::print_header("Extension: energy", "Energy per delivered packet (24 nodes, 15 MHz band, "
                                           "dense deployment, CC2420 current model)");

  const auto zigbee = phy::evenly_spaced(bench::kBandStart, phy::Mhz{5.0}, 4);
  const auto packed = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);

  struct Row {
    const char* name;
    EnergyResult result;
  };
  const Row rows[] = {
      {"ZigBee default", run_design(zigbee, net::Scheme::kFixedCca, 3, 1)},
      {"CFD=3, fixed CCA", run_design(packed, net::Scheme::kFixedCca, 2, 1)},
      {"CFD=3, DCN", run_design(packed, net::Scheme::kDcn, 2, 1)},
  };

  stats::TablePrinter table{{"design", "throughput (pkt/s)", "mJ / delivered packet"}};
  for (const Row& row : rows) {
    table.add_row({row.name, bench::pps(row.result.throughput_pps),
                   stats::TablePrinter::num(row.result.mj_per_packet, 3)});
  }
  table.print();
  std::printf("\nAll designs burn the same total power (radios never sleep), so energy per\n"
              "packet is inversely proportional to aggregate throughput: DCN's concurrency\n"
              "gain is also an energy-efficiency gain.\n");
  return 0;
}
