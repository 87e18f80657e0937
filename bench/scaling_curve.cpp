// scaling_curve — city-scale throughput of the simulation substrate.
//
// Drives Medium + Scheduler directly (no radios, no MAC) with a synthetic
// city: N nodes on a 50 m grid, urban path loss (n = 3.5), six channels,
// every node running a CCA-gated periodic sender. Each attempt is one
// scheduler event plus one sense_energy read — the exact pair that
// dominates every figure bench — so events/second here is the substrate's
// end-to-end speed limit.
//
// Two experiments:
//   * culled   — spatial interference culling on (the default config);
//   * dense    — culling disabled: every CCA read walks every active frame,
//                the pre-culling O(N^2) behaviour. Deliberately NOT run at
//                10k nodes: the walk grows ~25x over the 2k point, putting
//                one measurement window into minutes of wall clock while
//                adding nothing beyond the 2k contrast (the skip and this
//                reason are recorded in the JSON).
//
// Output: BENCH_scaling.json (see docs/scaling.md for how to read it):
//   {
//     "tool": "scaling_curve",
//     "points": [{"nodes": N, "mode": "culled"|"dense", "events": E,
//                 "wall_ms": W, "events_per_second": R}, ...],
//     "dense_skip_reason": "...",
//     "speedup_at_2000": <culled rate / dense rate at 2000 nodes>
//   }
//
// Usage:
//   scaling_curve [--out FILE] [--smoke] [--nodes N] [--duration S]
// --nodes / --duration pin a single city size and measurement window
// instead of the default sweep; --smoke shrinks everything for the tier-1
// smoke test.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "mac/cca.hpp"
#include "phy/medium.hpp"
#include "phy/path_loss.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using namespace nomc;
using Clock = std::chrono::steady_clock;

constexpr double kSpacingM = 50.0;
constexpr int kChannelCount = 6;

phy::MediumConfig city_medium_config(bool culled) {
  phy::MediumConfig config;
  // Urban propagation: steeper falloff than the paper's indoor testbed, so
  // a 0 dBm sender's influence radius is a few hundred metres and the
  // deployment spans many culling cells.
  config.path_loss = phy::LogDistancePathLoss{3.5, phy::Db{40.0}, 1.0};
  config.culling.enabled = culled;
  return config;
}

struct Point {
  int nodes = 0;
  bool culled = true;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  [[nodiscard]] double events_per_second() const {
    return wall_ms <= 0.0 ? 0.0 : static_cast<double>(events) * 1e3 / wall_ms;
  }
};

/// One synthetic city: every node periodically senses its channel and, when
/// clear, puts a 4 ms frame on the air. Attempt cadence is jittered per node
/// (hash-seeded, deterministic) so transmissions spread over time.
class City {
 public:
  City(int nodes, bool culled) {
    medium_ = std::make_unique<phy::Medium>(city_medium_config(culled));
    int s = 1;
    while (s * s < nodes) ++s;
    sim::SplitMix64 mix{static_cast<std::uint64_t>(nodes) * 2 + (culled ? 1 : 0)};
    for (int i = 0; i < nodes; ++i) {
      const double x = static_cast<double>(i % s) * kSpacingM;
      const double y = static_cast<double>(i / s) * kSpacingM;
      medium_->add_node({x, y});
      channels_.push_back(phy::Mhz{2445.0 + 3.0 * static_cast<double>(i % kChannelCount)});
      // First attempt spread across one period; cadence jittered +/- 25%.
      period_ns_.push_back(20'000'000 + static_cast<std::int64_t>(mix.next() % 10'000'000));
      const auto phase = static_cast<std::int64_t>(mix.next() % 20'000'000);
      const auto node = static_cast<phy::NodeId>(i);
      scheduler_.schedule_at(sim::SimTime::nanoseconds(phase), [this, node] { attempt(node); });
    }
  }

  /// Runs [0, warmup) untimed, then measures [warmup, warmup + window).
  Point run(sim::SimTime warmup, sim::SimTime window) {
    scheduler_.run_until(warmup);
    const std::uint64_t executed_before = scheduler_.executed();
    const auto start = Clock::now();
    scheduler_.run_until(warmup + window);
    Point point;
    point.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    point.events = scheduler_.executed() - executed_before;
    point.culled = medium_->culling_enabled();
    point.nodes = static_cast<int>(medium_->node_count());
    return point;
  }

 private:
  void attempt(phy::NodeId node) {
    const phy::Mhz channel = channels_[node];
    if (medium_->sense_energy(node, channel).value < mac::kZigbeeDefaultCcaThreshold.value) {
      phy::Frame frame;
      frame.id = medium_->allocate_frame_id();
      frame.src = node;
      frame.channel = channel;
      frame.tx_power = phy::Dbm{0.0};
      frame.psdu_bytes = 100;
      medium_->begin_tx(frame);
      const phy::FrameId id = frame.id;
      scheduler_.schedule_in(sim::SimTime::milliseconds(4),
                             [this, id] { medium_->end_tx(id); });
    }
    scheduler_.schedule_in(sim::SimTime::nanoseconds(period_ns_[node]),
                           [this, node] { attempt(node); });
  }

  sim::Scheduler scheduler_;
  std::unique_ptr<phy::Medium> medium_;
  std::vector<phy::Mhz> channels_;
  std::vector<std::int64_t> period_ns_;
};

constexpr const char* kDenseSkipReason =
    "dense mode at 10000 nodes is skipped: with culling off every CCA sense "
    "walks every active frame, so the walk grows ~25x over the 2000-node "
    "point and one measurement window takes minutes of wall clock without "
    "adding information beyond the 2000-node culled/dense contrast";

void write_json(const std::string& path, const std::vector<Point>& points, double speedup) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "scaling_curve: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"tool\": \"scaling_curve\",\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"mode\": \"%s\", \"events\": %llu, "
                 "\"wall_ms\": %.3f, \"events_per_second\": %.1f}%s\n",
                 p.nodes, p.culled ? "culled" : "dense",
                 static_cast<unsigned long long>(p.events), p.wall_ms, p.events_per_second(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"dense_skip_reason\": \"%s\",\n", kDenseSkipReason);
  std::fprintf(out, "  \"speedup_at_2000\": %.2f\n}\n", speedup);
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_string("out", "BENCH_scaling.json", "output JSON path");
  args.add_flag("smoke", "tiny sizes and windows for the tier-1 smoke test");
  args.add_int("nodes", 0, "pin one city size instead of the default sweep");
  args.add_double("duration", 0.0, "measurement window in seconds (0 = default)");
  if (!args.parse(argc - 1, argv + 1)) {
    std::fprintf(stderr, "scaling_curve: %s\n%s", args.error().c_str(),
                 args.help("scaling_curve").c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help("scaling_curve").c_str(), stdout);
    return 0;
  }

  const std::string out_path = args.get_string("out");
  const bool smoke = args.get_flag("smoke");
  const int pinned_nodes = args.get_int("nodes");

  std::vector<int> culled_sizes = smoke ? std::vector<int>{100, 300}
                                        : std::vector<int>{500, 2000, 10000};
  std::vector<int> dense_sizes = smoke ? std::vector<int>{100, 300}
                                       : std::vector<int>{500, 2000};
  if (pinned_nodes > 0) {
    culled_sizes = {pinned_nodes};
    // The dense walk is O(N^2); beyond the default 2k ceiling it takes
    // minutes per point, so a pinned large size skips it (see JSON reason).
    dense_sizes = pinned_nodes <= 2000 ? std::vector<int>{pinned_nodes} : std::vector<int>{};
  }

  const sim::SimTime warmup = sim::SimTime::milliseconds(smoke ? 40 : 200);
  const sim::SimTime window =
      args.get_double("duration") > 0.0
          ? sim::SimTime::seconds(args.get_double("duration"))
          : sim::SimTime::milliseconds(smoke ? 100 : 1000);

  std::vector<Point> points;
  double rate_culled_ref = 0.0;
  double rate_dense_ref = 0.0;
  const int ref_nodes = pinned_nodes > 0 ? pinned_nodes : (smoke ? 300 : 2000);
  for (const int nodes : culled_sizes) {
    City city{nodes, /*culled=*/true};
    const Point p = city.run(warmup, window);
    if (p.nodes == ref_nodes) rate_culled_ref = p.events_per_second();
    std::printf("culled  %6d nodes: %8llu events in %9.2f ms  (%.0f events/s)\n", p.nodes,
                static_cast<unsigned long long>(p.events), p.wall_ms, p.events_per_second());
    points.push_back(p);
  }
  for (const int nodes : dense_sizes) {
    City city{nodes, /*culled=*/false};
    const Point p = city.run(warmup, window);
    if (p.nodes == ref_nodes) rate_dense_ref = p.events_per_second();
    std::printf("dense   %6d nodes: %8llu events in %9.2f ms  (%.0f events/s)\n", p.nodes,
                static_cast<unsigned long long>(p.events), p.wall_ms, p.events_per_second());
    points.push_back(p);
  }
  if (!smoke && pinned_nodes == 0) std::printf("dense  10000 nodes: skipped — O(N^2)\n");

  const double speedup = rate_dense_ref > 0.0 ? rate_culled_ref / rate_dense_ref : 0.0;
  if (rate_dense_ref > 0.0) std::printf("speedup at %d nodes: %.2fx\n", ref_nodes, speedup);
  write_json(out_path, points, speedup);
  return 0;
}
