// Microbenchmarks of the simulation substrate (google-benchmark): the hot
// paths every figure bench runs millions of times, the city-scale medium
// (BM_City) and the whole-repo lint scan (BM_LintRepoScan). Useful when
// changing the scheduler's heap, the medium's interference accumulation,
// spatial culling, the BER model, or the linter's driver.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lint/driver.hpp"
#include "mac/cca.hpp"
#include "phy/medium.hpp"
#include "phy/modulation.hpp"
#include "phy/path_loss.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using namespace nomc;

/// A medium with `active` frames on the air and node 0 as the observer.
/// Mirrors a dense band: one frame per node, channels cycling at 3 MHz.
phy::Medium& dense_medium(int active) {
  static std::map<int, std::unique_ptr<phy::Medium>> cache;
  auto& slot = cache[active];
  if (!slot) {
    slot = std::make_unique<phy::Medium>();
    for (int i = 0; i < active + 1; ++i) {
      slot->add_node({static_cast<double>(i), 0.0});
    }
    for (int i = 0; i < active; ++i) {
      phy::Frame frame;
      frame.id = slot->allocate_frame_id();
      frame.src = static_cast<phy::NodeId>(i + 1);
      frame.channel = phy::Mhz{2458.0 + 3.0 * (i % 6)};
      frame.tx_power = phy::Dbm{0.0};
      frame.psdu_bytes = 100;
      slot->begin_tx(frame);
    }
  }
  return *slot;
}

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler scheduler;
    sim::RandomStream rng{1, 0};
    for (int i = 0; i < events; ++i) {
      scheduler.schedule_at(sim::SimTime::microseconds(rng.uniform_int(0, 1'000'000)), [] {});
    }
    scheduler.run_all();
    benchmark::DoNotOptimize(scheduler.executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1'000)->Arg(10'000);

void BM_SchedulerCancelHalf(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler scheduler;
    std::vector<sim::EventId> ids;
    ids.reserve(events);
    for (int i = 0; i < events; ++i) {
      ids.push_back(scheduler.schedule_at(sim::SimTime::microseconds(i), [] {}));
    }
    for (int i = 0; i < events; i += 2) scheduler.cancel(ids[i]);
    scheduler.run_all();
    benchmark::DoNotOptimize(scheduler.executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SchedulerCancelHalf)->Arg(10'000);

/// Steady-state CCA cost: repeated queries about a stable active set — the
/// regime the path-loss/shadowing memoization targets, and what a saturated
/// CSMA sender does between backoffs.
void BM_MediumSenseEnergy(benchmark::State& state) {
  phy::Medium& medium = dense_medium(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.sense_energy(0, phy::Mhz{2464.0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSenseEnergy)->Arg(4)->Arg(12)->Arg(24);

/// Worst-case CCA cost: the observer moves before every query, so every
/// path-loss entry involving it recomputes (shadowing stays memoized per
/// frame). Bounds what cache invalidation costs a mobility workload.
void BM_MediumSenseEnergyCold(benchmark::State& state) {
  phy::Medium& medium = dense_medium(static_cast<int>(state.range(0)));
  double y = 0.0;
  for (auto _ : state) {
    y = y == 0.0 ? 0.5 : 0.0;
    medium.set_position(0, {0.0, y});
    benchmark::DoNotOptimize(medium.sense_energy(0, phy::Mhz{2464.0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumSenseEnergyCold)->Arg(4)->Arg(12)->Arg(24);

/// First RSS query about a fresh frame: one uncached Box–Muller shadowing
/// draw per iteration (the path BM_MediumSenseEnergy now amortizes away).
void BM_ShadowingSample(benchmark::State& state) {
  const phy::ShadowingField field{2.5, 1};
  std::uint64_t frame_id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.sample(frame_id++, 7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowingSample);

/// Trial-replication scaling: N independent seeded workloads through the
/// pool. The work per trial is pure compute, so the jobs=1 vs jobs=N ratio
/// isolates the runner's overhead and available hardware parallelism.
void BM_ParallelRunnerMap(benchmark::State& state) {
  sim::ParallelRunner runner{static_cast<int>(state.range(0))};
  constexpr int kTrials = 16;
  for (auto _ : state) {
    const auto results = runner.map(kTrials, [](int trial) {
      sim::RandomStream rng{static_cast<std::uint64_t>(trial) + 1, 0};
      double acc = 0.0;
      for (int i = 0; i < 20'000; ++i) acc += rng.uniform();
      return acc;
    });
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * kTrials);
}
BENCHMARK(BM_ParallelRunnerMap)->Arg(1)->Arg(2)->Arg(4);

void BM_OqpskBer(benchmark::State& state) {
  double sinr = -12.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::oqpsk_ber(sinr));
    sinr += 0.01;
    if (sinr > 12.0) sinr = -12.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OqpskBer);

void BM_BinomialDraw(benchmark::State& state) {
  sim::RandomStream rng{1, 0};
  const double p = 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.binomial(1000, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinomialDraw);

// ---- City scale -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

constexpr double kCitySpacingM = 50.0;
constexpr int kCityChannelCount = 6;

phy::MediumConfig city_medium_config(bool culled) {
  phy::MediumConfig config;
  // Urban propagation: steeper falloff than the paper's indoor testbed, so
  // a 0 dBm sender's influence radius is a few hundred metres and the
  // deployment spans many culling cells.
  config.path_loss = phy::LogDistancePathLoss{3.5, phy::Db{40.0}, 1.0};
  config.culling.enabled = culled;
  return config;
}

/// One synthetic city: N nodes on a 50 m grid, six channels, every node
/// periodically senses its channel and, when clear, puts a 4 ms frame on
/// the air. Medium + Scheduler only (no radios, no MAC): each attempt is one
/// scheduler event plus one sense_energy read, the pair that dominates every
/// figure bench. Attempt cadence is jittered per node (hash-seeded,
/// deterministic) so transmissions spread over time.
class City {
 public:
  City(int nodes, bool culled) {
    medium_ = std::make_unique<phy::Medium>(city_medium_config(culled));
    int s = 1;
    while (s * s < nodes) ++s;
    sim::SplitMix64 mix{static_cast<std::uint64_t>(nodes) * 2 + (culled ? 1 : 0)};
    for (int i = 0; i < nodes; ++i) {
      const double x = static_cast<double>(i % s) * kCitySpacingM;
      const double y = static_cast<double>(i / s) * kCitySpacingM;
      medium_->add_node({x, y});
      channels_.push_back(phy::Mhz{2445.0 + 3.0 * static_cast<double>(i % kCityChannelCount)});
      // First attempt spread across one period; cadence jittered +/- 25%.
      period_ns_.push_back(20'000'000 + static_cast<std::int64_t>(mix.next() % 10'000'000));
      const auto phase = static_cast<std::int64_t>(mix.next() % 20'000'000);
      const auto node = static_cast<phy::NodeId>(i);
      scheduler_.schedule_at(sim::SimTime::nanoseconds(phase), [this, node] { attempt(node); });
    }
  }

  struct Window {
    std::uint64_t events = 0;
    double wall_s = 0.0;
  };

  /// Runs [0, warmup) untimed, then measures [warmup, warmup + window).
  Window run(sim::SimTime warmup, sim::SimTime window) {
    scheduler_.run_until(warmup);
    const std::uint64_t executed_before = scheduler_.executed();
    const auto start = Clock::now();
    scheduler_.run_until(warmup + window);
    Window measured;
    measured.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    measured.events = scheduler_.executed() - executed_before;
    return measured;
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

/// City-scale substrate throughput, args (nodes, culled). Runs 200 ms of
/// simulated time untimed, then times a 1 s window; `events` is the count
/// executed in the window and `events_per_s` divides it by the window's wall
/// time. culled:0 is the reference path (every CCA read walks every live
/// frame) that the MediumCulling tests compare culling against.
void BM_City(benchmark::State& state) {
  const sim::SimTime warmup = sim::SimTime::milliseconds(200);
  const sim::SimTime window = sim::SimTime::seconds(1.0);
  double events = 0.0;
  for (auto _ : state) {
    City city{static_cast<int>(state.range(0)), state.range(1) != 0};
    const City::Window measured = city.run(warmup, window);
    state.SetIterationTime(measured.wall_s);
    events += static_cast<double>(measured.events);
  }
  state.counters["events"] = events;
  state.counters["events_per_s"] = benchmark::Counter(events, benchmark::Counter::kIsRate);
}

/// Culled at 500, 2000 and 10000 nodes. Dense stops at 2000: its walk grows
/// ~25x from 2000 to 10000 nodes, which puts one window into minutes.
void city_cases(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"nodes", "culled"});
  for (const int nodes : {500, 2000, 10000}) bench->Args({nodes, 1});
  for (const int nodes : {500, 2000}) bench->Args({nodes, 0});
  bench->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_City)->Apply(city_cases);

// ---- Lint -------------------------------------------------------------------

/// One full nomc-lint scan of this repository per iteration: collect files,
/// tokenize and run the per-file rules on `jobs` workers, then the serial
/// whole-program passes (include graph, stale suppressions, baseline).
void BM_LintRepoScan(benchmark::State& state) {
  const std::string root{NOMC_LINT_REPO_ROOT};
  lint::RunOptions options;
  options.roots = {root + "/src", root + "/tools", root + "/bench", root + "/tests"};
  options.root_prefix = root;
  options.layers_path = root + "/tools/nomc_layers.txt";
  options.baseline_path = root + "/tools/nomc_lint.baseline";
  options.jobs = static_cast<int>(state.range(0));
  std::size_t files = 0;
  for (auto _ : state) {
    lint::RunResult run;
    std::string error;
    if (!lint::run_lint(options, run, error)) {
      state.SkipWithError(("lint run failed: " + error).c_str());
      return;
    }
    files = run.file_count;
  }
  state.counters["files"] = static_cast<double>(files);
}

/// jobs 1, 2, 4 and 8, on wall time: the per-file stage runs on worker
/// threads that the main thread's CPU time does not see.
void lint_cases(benchmark::internal::Benchmark* bench) {
  bench->ArgName("jobs")->RangeMultiplier(2)->Range(1, 8);
  bench->UseRealTime()->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_LintRepoScan)->Apply(lint_cases);

}  // namespace

BENCHMARK_MAIN();
