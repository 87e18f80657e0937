// Shared plumbing for the figure benches: the paper's band, the motivation
// experiment's channel lists, and result formatting. The trials themselves
// run through exp::run_point / exp::run_trials.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "phy/channel_plan.hpp"
#include "stats/table.hpp"

namespace nomc::bench {

/// The paper's evaluation band starts here (§VI: "from 2458MHz").
inline constexpr phy::Mhz kBandStart{2458.0};

/// CFD → channel list used by the motivation experiment (paper Fig. 1).
/// The paper packs a 12 MHz band and reports these channel counts
/// explicitly (§III-A: 1 channel at 9 MHz, 2 at 5 MHz, and Fig. 1's bars).
inline std::vector<phy::Mhz> motivation_channels(double cfd_mhz) {
  int count = 0;
  if (cfd_mhz >= 9.0) {
    count = 1;
  } else if (cfd_mhz >= 5.0) {
    count = 2;
  } else if (cfd_mhz >= 4.0) {
    count = 3;
  } else if (cfd_mhz >= 3.0) {
    count = 4;
  } else {
    count = 6;
  }
  return phy::evenly_spaced(kBandStart, phy::Mhz{cfd_mhz}, count);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("== %s ==\n%s\n\n", figure, description);
}

inline std::string pps(double value) { return stats::TablePrinter::num(value, 1); }
inline std::string pct(double ratio) { return stats::TablePrinter::num(100.0 * ratio, 1) + "%"; }

}  // namespace nomc::bench
