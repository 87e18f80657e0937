// nomc-perf: runs one benchmark workload and prints its result.
//
//   nomc-perf --workload paper_sweep|crowded_trial|service_mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--commit SHA]
//
// With --trace 0 the result carries the end-to-end metrics of one untraced
// pass. With --trace 1 the workload runs untraced, then again with spans on,
// then the per-layer probes; the result carries the per-layer metrics and
// the spans go to DIR/spans.jsonl. Either way the output checks run after
// the timed phase, and any mismatch makes the exit code 1. perfbench/run.py
// builds this binary and is the command to use.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace nomc::perfbench {

double Workload::peak_rss_mb() const { return perfbench::peak_rss_mb(static_cast<int>(::getpid())); }

namespace {

/// The per-layer metrics, in BENCHMARK.json order, with their units. A layer
/// a workload never calls reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.sched_ns_per_op", "ns"},
      {"sim.pool_busy_ratio", "ratio"},
      {"phy.tx_frames", "count"},
      {"phy.rx_fail_ratio", "ratio"},
      {"phy.begin_end_tx_ns", "ns"},
      {"phy.sense_energy_ns", "ns"},
      {"phy.interference_ns", "ns"},
      {"phy.oqpsk_ber_ns", "ns"},
      {"mac.cca_busy_ratio", "ratio"},
      {"mac.access_failures", "count"},
      {"mac.delivery_ratio", "ratio"},
      {"dcn.threshold_moves", "count"},
      {"net.setup_ms", "ms"},
      {"net.run_s", "s"},
      {"exp.spec_us", "us"},
      {"exp.point_ms", "ms"},
      {"exp.campaign_overhead_ratio", "ratio"},
      {"exp.index_open_ms", "ms"},
      {"exp.index_lookup_us", "us"},
      {"exp.store_bytes_per_point", "B/point"},
      {"svc.ping_us", "us"},
      {"svc.query_us_during_cold", "us"},
      {"svc.lease_overhead_ratio", "ratio"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.retried", "count"},
      {"svc.export_rows_per_s", "rows/s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return metrics;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "nomc-perf: %s\nusage: nomc-perf --workload paper_sweep|crowded_trial|service_mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--commit SHA]\n",
               message);
  return 2;
}

void print_metric(const std::string& workload, const Metric& metric) {
  std::printf("%s %s = %s %s\n", workload.c_str(), metric.name.c_str(),
              number_text(metric.value).c_str(), metric.unit.c_str());
}

int run(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  int seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!have_seed || seconds < 1 || trace < 0 || config.work_dir.empty()) {
    return usage("--seed, --seconds >= 1, --trace and --work-dir are required");
  }
  config.seconds = seconds;
  config.trace = trace == 1;

  std::unique_ptr<Workload> workload;
  if (config.workload == "paper_sweep") {
    workload = make_paper_sweep(config);
  } else if (config.workload == "crowded_trial") {
    workload = make_crowded_trial(config);
  } else if (config.workload == "service_mix") {
    workload = make_service_mix(config);
  } else {
    return usage("unknown workload");
  }
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);

  Outcome outcome;
  EndToEnd untraced;
  EndToEnd traced;
  LayerValues layers;
  workload->setup(untraced, outcome);
  if (outcome.failed == 0) workload->measure(0, untraced, outcome);
  if (config.trace && outcome.failed == 0) {
    tracer().set_enabled(true);
    workload->measure(1, traced, outcome);
  }
  if (outcome.failed == 0) workload->verify(outcome);
  if (config.trace && outcome.failed == 0) workload->probe_layers(layers, outcome);
  const double rss_mb = workload->peak_rss_mb();
  workload->teardown();
  tracer().set_enabled(false);

  const WindowedTail tail = windowed_tail(untraced.op_ms);
  std::vector<Metric> metrics;
  if (!config.trace) {
    metrics = {
        {"setup_s", median(untraced.setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"ops_per_s", untraced.ops_per_s(), "1/s"},
        {"op_ms_p50", windowed_median(untraced.op_ms), "ms"},
        {"op_ms_tail", tail.value, "ms"},
    };
  } else {
    const double untraced_per_op = untraced.ops > 0 ? untraced.busy_s / untraced.ops : 0.0;
    const double traced_per_op = traced.ops > 0 ? traced.busy_s / traced.ops : 0.0;
    layers["trace.overhead_ratio"] = untraced_per_op > 0 ? traced_per_op / untraced_per_op : 0.0;
    for (const auto& [name, unit] : layer_metrics()) {
      const auto found = layers.find(name);
      metrics.push_back({name, found != layers.end() ? found->second : 0.0, unit});
    }
    std::string error;
    if (!tracer().write_jsonl(config.work_dir + "/spans.jsonl", error)) {
      std::fprintf(stderr, "nomc-perf: %s\n", error.c_str());
    }
  }

  // Human-readable report, then the stamp, then the one-line result.
  for (const Metric& metric : metrics) print_metric(config.workload, metric);
  if (!config.trace) {
    print_metric(config.workload, {"op_ms_tail_percentile", tail.percentile, "%"});
    print_metric(config.workload, {"op_samples", static_cast<double>(tail.samples), "count"});
    print_metric(config.workload, {"op_tail_windows", static_cast<double>(tail.windows), "count"});
    for (const Metric& metric : untraced.named) print_metric(config.workload, metric);
  }
  const double failed_ratio = outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                                          static_cast<double>(outcome.attempted)
                                                    : 0.0;
  print_metric(config.workload, {"failed_ratio", failed_ratio, "failed/attempted"});
  if (outcome.failed > 0) {
    std::fprintf(stderr, "nomc-perf: %llu of %llu checks failed; first: %s\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted),
                 outcome.first_failure.c_str());
  }
  std::printf("%s\n", stamp_line({config.workload, config.seed, seconds, config.trace, commit})
                          .c_str());
  std::printf("%s\n", result_line(outcome, metrics).c_str());
  std::fflush(stdout);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace nomc::perfbench

int main(int argc, char** argv) {
  try {
    return nomc::perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nomc-perf: %s\n", error.what());
    return 2;
  }
}
