// Paper Fig. 30 (§VII-B): DCN's relative gain grows with bandwidth. With a
// wider band there are more middle-of-band networks — the ones with the
// most inter-channel interference to convert into concurrency — so the
// aggregate relaxation gain rises (paper: +10 % at 12 MHz / 5 channels,
// +13 % at 18 MHz / 7 channels). TX power fixed at 0 dBm to isolate the
// bandwidth effect, as in the paper.
//
// This bench delegates to the experiment-campaign engine: the sweep below
// is the same spec as examples/campaigns/fig30_wider_band.campaign
// (embedded so the binary is self-contained), expanded and executed through
// exp::run_point — one consumer of the sweep grid, no hand-rolled loops.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "exp/spec.hpp"
#include "sim/parallel.hpp"

namespace {

constexpr const char* kSpecText = R"(
# Embedded copy of examples/campaigns/fig30_wider_band.campaign.
name = fig30_wider_band
cfd = 3
power = 0
trials = 5
sweep channels = 5 6 7
sweep scheme = fixed dcn
)";

}  // namespace

int main() {
  using namespace nomc;
  bench::print_header("Fig. 30", "DCN gain vs spectrum bandwidth (CFD=3 MHz, 0 dBm)");

  exp::CampaignSpec spec;
  exp::SpecError error;
  if (!exp::parse_campaign(kSpecText, spec, error)) {
    std::fprintf(stderr, "embedded spec: %s\n", error.str().c_str());
    return 1;
  }

  // (channels, scheme) -> per-point result, filled in grid order.
  std::map<std::pair<int, std::string>, exp::PointResult> results;
  sim::ParallelRunner runner{1};
  for (const exp::SweepPoint& point : exp::expand_grid(spec)) {
    results[{point.params.channels, point.params.scheme}] = exp::run_point(point.params, runner);
  }

  stats::TablePrinter table{{"band (MHz)", "channels", "w/o DCN (pkt/s)", "with DCN (pkt/s)",
                             "gain"}};
  for (const int channels_count : {5, 6, 7}) {
    const exp::PointResult& without = results.at({channels_count, "fixed"});
    const exp::PointResult& with = results.at({channels_count, "dcn"});
    table.add_row({std::to_string(3 * (channels_count - 1) + 3), std::to_string(channels_count),
                   bench::pps(without.overall_pps), bench::pps(with.overall_pps),
                   bench::pct(with.overall_pps / without.overall_pps - 1.0)});
  }
  table.print();

  // Per-network view for the widest band: middle networks gain most.
  const exp::PointResult& without = results.at({7, "fixed"});
  const exp::PointResult& with = results.at({7, "dcn"});
  std::printf("\n18 MHz band, per network (N0..N6 across the band):\n");
  stats::TablePrinter detail{{"network", "w/o (pkt/s)", "with (pkt/s)", "gain"}};
  for (std::size_t i = 0; i < without.pps.size(); ++i) {
    std::string network = "N";
    network += std::to_string(i);
    detail.add_row({network, bench::pps(without.pps[i]),
                    bench::pps(with.pps[i]),
                    bench::pct(with.pps[i] / without.pps[i] - 1.0)});
  }
  detail.print();
  std::printf("\nPaper: wider band -> more relaxation gain; middle networks improve most.\n");
  return 0;
}
