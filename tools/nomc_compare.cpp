// nomc-compare — A/B comparison driver with confidence intervals.
//
// Runs two channel-plan/scheme designs over the same set of random
// deployments (paired seeds) and reports overall throughput as mean ± 95 %
// CI plus the paired relative gain. Example — the paper's headline:
//
//   nomc-compare --a-cfd 5 --a-channels 4 --a-scheme fixed --a-links 3
//                --b-cfd 3 --b-channels 6 --b-scheme dcn --trials 10
//
// Each side of a paired trial is a single-trial exp::run_point on the seed
// exp::trial_seed(--seed, i), so a side's numbers match nomc-sim's for that
// seed.
#include <cstdio>
#include <string>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "sim/parallel.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace nomc;
  cli::ArgParser args;
  args.add_double("band-start", 2458.0, "first channel center (MHz), both designs");
  cli::add_topology_option(args);
  args.add_double("power", 0.0, "fixed TX power (dBm); omit for random [-22, 0]");
  args.add_int("trials", 5, "paired random deployments");
  args.add_int("seed", 1, "base seed; paired trial i derives its own seed from it");
  args.add_double("warmup", 2.0, "warm-up (s)");
  args.add_double("measure", 8.0, "measurement window (s)");
  args.add_double("a-cfd", 5.0, "design A: channel distance (MHz)");
  args.add_int("a-channels", 4, "design A: channel count");
  args.add_int("a-links", 3, "design A: links per network");
  cli::add_scheme_option(args, "a-scheme", "fixed", "design A");
  args.add_double("b-cfd", 3.0, "design B: channel distance (MHz)");
  args.add_int("b-channels", 6, "design B: channel count");
  args.add_int("b-links", 2, "design B: links per network");
  cli::add_scheme_option(args, "b-scheme", "dcn", "design B");

  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }

  net::Scheme scheme;
  if (!cli::scheme_from_args(args, "a-scheme", scheme) ||
      !cli::scheme_from_args(args, "b-scheme", scheme)) {
    return 2;
  }

  // Both designs share the deployment knobs; each paired trial is one
  // single-trial point per design on the same seed.
  exp::PointParams shared;
  if (!cli::topology_from_args(args, "topology", shared.topology)) return 2;
  shared.band_start_mhz = args.get_double("band-start");
  if (args.provided("power")) shared.power_dbm = args.get_double("power");
  shared.warmup_s = args.get_double("warmup");
  shared.measure_s = args.get_double("measure");
  shared.trials = 1;

  exp::PointParams a = shared;
  a.cfd_mhz = args.get_double("a-cfd");
  a.channels = args.get_int("a-channels");
  a.links = args.get_int("a-links");
  a.scheme = args.get_string("a-scheme");
  exp::PointParams b = shared;
  b.cfd_mhz = args.get_double("b-cfd");
  b.channels = args.get_int("b-channels");
  b.links = args.get_int("b-links");
  b.scheme = args.get_string("b-scheme");
  const int trials = args.get_int("trials");
  const auto base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  sim::ParallelRunner runner{1};
  stats::SummaryStats stats_a;
  stats::SummaryStats stats_b;
  stats::SummaryStats gain;
  for (int trial = 0; trial < trials; ++trial) {
    a.seed = b.seed = exp::trial_seed(base_seed, trial);
    const double result_a = exp::run_point(a, runner).overall_pps;
    const double result_b = exp::run_point(b, runner).overall_pps;
    stats_a.add(result_a);
    stats_b.add(result_b);
    if (result_a > 0.0) gain.add(100.0 * (result_b / result_a - 1.0));
  }

  auto describe = [](const exp::PointParams& d) {
    return std::to_string(d.channels) + "ch @ " + stats::TablePrinter::num(d.cfd_mhz, 0) +
           "MHz, " + d.scheme;
  };
  stats::TablePrinter table{{"design", "overall (pkt/s)", "±95% CI"}};
  table.add_row({"A: " + describe(a), stats::TablePrinter::num(stats_a.mean(), 1),
                 stats::TablePrinter::num(stats_a.ci95_half_width(), 1)});
  table.add_row({"B: " + describe(b), stats::TablePrinter::num(stats_b.mean(), 1),
                 stats::TablePrinter::num(stats_b.ci95_half_width(), 1)});
  table.print();
  std::printf("\nB vs A (paired over %d deployments): %+.1f%% ± %.1f%%\n", trials,
              gain.mean(), gain.ci95_half_width());
  return 0;
}
