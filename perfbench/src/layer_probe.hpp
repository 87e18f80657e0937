// Trial-stack building blocks shared by the workloads: build a trial's
// deployment exactly as exp::run_point does, run it through the public
// net::Scenario API, and probe the sim/phy/mac/dcn/net layers of one trial
// from outside (a MemoryTraceSink on the scheduler, a replay of the traced
// frame stream through a fresh phy::Medium, a timed scheduler load).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "harness.hpp"
#include "net/scenario.hpp"
#include "net/spec.hpp"
#include "sim/time.hpp"
#include "stats/counters.hpp"

namespace nomc::perfbench {

/// Per-layer metric values by name; names a workload never fills read 0.
using LayerValues = std::map<std::string, double>;

/// The deployment exp::run_point builds for the first trial of a point.
struct TrialPlan {
  std::vector<net::NetworkSpec> networks;
  net::ScenarioConfig config;
  net::Scheme scheme = net::Scheme::kDcn;
  sim::SimTime warmup;
  sim::SimTime measure;
};
[[nodiscard]] TrialPlan plan_trial(const exp::PointParams& params);

/// Everything a trial reports, compared bit for bit between runs.
struct TrialResult {
  std::vector<double> network_pps;
  double overall_pps = 0.0;
  std::vector<stats::PacketCounters> senders;
  std::vector<stats::PacketCounters> receivers;
  std::uint64_t events = 0;

  [[nodiscard]] bool identical(const TrialResult& other) const;
};
[[nodiscard]] TrialResult collect_trial(net::Scenario& scenario);

/// Run `scenario` (already built) in slices of `slice` simulated time,
/// calling `on_slice(host_ms)` after each; equivalent to Scenario::run.
template <typename OnSlice>
void run_in_slices(const TrialPlan& plan, net::Scenario& scenario, sim::SimTime slice,
                   OnSlice&& on_slice) {
  const sim::SimTime end = plan.warmup + plan.measure;
  scenario.start_run(plan.warmup, plan.measure);
  for (sim::SimTime at = slice; ; at += slice) {
    const sim::SimTime until = at < end ? at : end;
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span{"sim.run_until"};
      scenario.scheduler().run_until(until);
    }
    on_slice(seconds_since(start) * 1e3);
    if (until == end) break;
  }
}

/// Probe the first trial of the point `params` describes: an untraced
/// Scenario::run, which must report what exp::run_point reports for that
/// trial (so the plan is the trial the program runs), a traced sliced run
/// that must match it bit for bit, then the scheduler load and the PHY
/// replay on the traced frame stream. Fills the sim.*, phy.*, mac.*, dcn.*
/// and net.* per-layer values.
void probe_trial_stack(const exp::PointParams& params, LayerValues& layers, Outcome& outcome);

}  // namespace nomc::perfbench
