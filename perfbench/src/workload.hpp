// The interface every benchmark workload implements, and the end-to-end
// samples it reports. main.cpp drives one workload per process:
//
//   setup()              timed set-up, repeated; fills EndToEnd::setup_s
//   measure(pass)        the timed closed loop, once untraced and, for a
//                        traced run, once more with spans on
//   verify()             output checks after the timed phase
//   probe_layers()       traced run only: per-layer values from outside
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layer_probe.hpp"

namespace nomc::perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working directory owned by this run
};

/// What one measured pass observed. An "op" is the workload's unit of
/// work: a sweep point, a simulated slice of a trial, or a request.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one sample per set-up
  std::vector<double> op_ms;    ///< one sample per completed op
  double ops = 0.0;             ///< completed ops
  double busy_s = 0.0;          ///< host time the ops took
  /// Ops per host second over consecutive stretches of the run (a trial, a
  /// repetition, a second of requests), in arrival order.
  std::vector<double> window_rates;
  /// The workload's own named figures, printed as "name value unit".
  std::vector<Metric> named;

  /// The median stretch's rate: a stretch the host stalled moves it no
  /// more than any other stretch.
  [[nodiscard]] double ops_per_s() const { return median(window_rates); }
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup(EndToEnd& e2e, Outcome& outcome) = 0;
  /// `pass` is 0 for the untraced pass and 1 for the traced one.
  virtual void measure(int pass, EndToEnd& e2e, Outcome& outcome) = 0;
  virtual void probe_layers(LayerValues& layers, Outcome& outcome) = 0;
  virtual void verify(Outcome& outcome) = 0;
  /// Peak RSS of the benchmark process plus every child it runs, in MiB.
  [[nodiscard]] virtual double peak_rss_mb() const;
  /// Stop everything the workload started; safe to call twice.
  virtual void teardown() {}
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_sweep(const RunConfig& config);
[[nodiscard]] std::unique_ptr<Workload> make_crowded_trial(const RunConfig& config);
[[nodiscard]] std::unique_ptr<Workload> make_service_mix(const RunConfig& config);

}  // namespace nomc::perfbench
