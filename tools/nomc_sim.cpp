// nomc_sim — command-line simulation driver.
//
// Runs one multi-network deployment and prints per-network results, so a
// user can explore channel plans, schemes, and topologies without writing
// C++. Examples:
//
//   # The paper's headline comparison, one side at a time:
//   nomc_sim --cfd 5 --channels 4 --scheme fixed --links 3
//   nomc_sim --cfd 3 --channels 6 --scheme dcn
//
//   # Case III with a trace of every DCN threshold move:
//   nomc_sim --topology random --scheme dcn --trace run.csv
//
//   # 32 independent deployments averaged, replicated across all cores:
//   nomc_sim --scheme dcn --trials 32 --jobs 0
//
// One operating point of a sweep; for whole parameter sweeps with a result
// store, see nomc-campaign. Both execute points through exp::run_point, so
// their numbers agree exactly.
#include <cstdio>
#include <memory>
#include <string>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "mac/cca.hpp"
#include "net/scenario.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "stats/table.hpp"

namespace {

using namespace nomc;

int run(const cli::ArgParser& args) {
  exp::PointParams params;
  params.scheme = args.get_string("scheme");
  params.band_start_mhz = args.get_double("band-start");
  params.cfd_mhz = args.get_double("cfd");
  params.channels = args.get_int("channels");
  params.links = args.get_int("links");
  if (args.provided("power")) params.power_dbm = args.get_double("power");
  params.cca_dbm = args.get_double("cca");
  params.psdu_bytes = args.get_int("psdu");
  params.warmup_s = args.get_double("warmup");
  params.measure_s = args.get_double("measure");
  params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  params.trials = args.get_int("trials");

  net::Scheme scheme;
  if (!cli::scheme_from_args(args, "scheme", scheme)) return 1;
  if (!cli::topology_from_args(args, "topology", params.topology)) return 1;
  if (params.trials < 1) {
    std::fprintf(stderr, "--trials must be >= 1\n");
    return 1;
  }

  // The event trace is a single-run debugging artifact; averaging trials
  // would interleave unrelated runs, so the trace only attaches to trial 0
  // and --trace forces that trial to run alone on the calling thread.
  std::unique_ptr<sim::CsvTraceSink> trace;
  if (args.provided("trace") && params.trials > 1) {
    std::fprintf(stderr, "--trace requires --trials 1\n");
    return 1;
  }
  if (args.provided("trace")) {
    trace = std::make_unique<sim::CsvTraceSink>(args.get_string("trace"));
  }

  sim::ParallelRunner runner{trace ? 1 : args.get_int("jobs")};
  const exp::PointResult mean = exp::run_point(
      params, runner,
      [&](int trial, net::Scenario& scenario) {
        if (trace && trial == 0) scenario.scheduler().set_trace(trace.get());
      });

  std::printf("scheme=%s topology=%s channels=%d cfd=%.1fMHz seed=%llu trials=%d jobs=%d\n\n",
              params.scheme.c_str(), params.topology.c_str(), params.channels,
              params.cfd_mhz, static_cast<unsigned long long>(params.seed), params.trials,
              runner.jobs());

  stats::TablePrinter table{{"network", "MHz", "pkt/s", "PRR", "backoffs/s", "drops/s"}};
  for (std::size_t n = 0; n < mean.pps.size(); ++n) {
    std::string label = "N";  // discrete appends keep GCC 12's -Wrestrict quiet
    label += std::to_string(n);
    table.add_row({std::move(label),
                   stats::TablePrinter::num(
                       params.band_start_mhz + params.cfd_mhz * static_cast<double>(n), 0),
                   stats::TablePrinter::num(mean.pps[n], 1),
                   stats::TablePrinter::num(100.0 * mean.prr[n], 1) + "%",
                   stats::TablePrinter::num(mean.backoffs_per_s[n], 1),
                   stats::TablePrinter::num(mean.drops_per_s[n], 1)});
  }
  table.print();
  std::printf("\noverall: %.1f pkt/s   Jain fairness: %.3f\n", mean.overall_pps, mean.jain);
  if (trace) std::printf("trace written to %s\n", args.get_string("trace").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_double("band-start", 2458.0, "first channel center frequency (MHz)");
  args.add_double("cfd", 3.0, "channel frequency distance (MHz)");
  args.add_int("channels", 6, "number of channels / networks");
  cli::add_scheme_option(args, "scheme", "dcn");
  cli::add_topology_option(args);
  args.add_int("links", 2, "sender->receiver links per network");
  args.add_double("power", 0.0,
                  "fixed TX power (dBm) for all nodes; omit for random [-22, 0]");
  args.add_double("cca", mac::kZigbeeDefaultCcaThreshold.value,
                  "fixed-scheme CCA threshold (dBm)");
  args.add_int("psdu", 100, "data frame PSDU size (bytes)");
  args.add_double("warmup", 2.0, "warm-up before measurement (s)");
  args.add_double("measure", 8.0, "measurement window (s)");
  args.add_int("seed", 1, "random seed (placement, fading, backoff)");
  args.add_int("trials", 1, "independent random deployments averaged, one seed each");
  args.add_int("jobs", 1, "worker threads for trials (0 = all hardware threads)");
  args.add_string("trace", "", "write a CSV event trace to this path (needs --trials 1)");

  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  return run(args);
}
