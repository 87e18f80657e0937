// CampaignRunner: expands a CampaignSpec into its sweep grid, executes the
// points on a two-level worker pool (point_jobs concurrent points, each
// replicating its trials on a jobs-wide sim::ParallelRunner), and
// checkpoints completed points into the JSONL result store through an
// OrderedCheckpointer, so records land in point order no matter which point
// finished first.
//
// Determinism contract: a point's record bytes are a pure function of the
// spec — trials are seeded per point exactly like nomc-sim / bench::trial_seed
// (seed + trial * 1000003) and merged in seed order, so the store is
// byte-identical whether the campaign ran straight through, was interrupted
// and resumed, or used any (jobs, point_jobs) combination. Checkpoint
// granularity is one sweep point: resume re-runs at most the points that
// were in flight.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"

namespace nomc::sim {
class ParallelRunner;
}
namespace nomc::net {
class Scenario;
}

namespace nomc::exp {

/// Seed-ordered mean across a point's trials, per network.
struct PointResult {
  std::vector<double> pps;
  std::vector<double> prr;
  std::vector<double> backoffs_per_s;
  std::vector<double> drops_per_s;
  double overall_pps = 0.0;
  double jain = 0.0;  ///< Jain fairness index of the mean per-network pps
};

/// Called for each trial's Scenario after construction, before run()
/// (nomc-sim uses it to attach the event trace to trial 0).
using TrialHook = std::function<void(int trial, net::Scenario&)>;

/// Run one operating point: params.trials independent deployments replicated
/// on `runner`, merged in seed order. The params must be pre-validated
/// (parser or cli helpers); run_point asserts on an unknown scheme/topology.
[[nodiscard]] PointResult run_point(const PointParams& params, sim::ParallelRunner& runner,
                                    const TrialHook& pre_run = {});

struct CampaignOptions {
  int jobs = 1;  ///< trial threads per point, as sim::resolve_jobs (0 = all)
  /// Sweep points computed concurrently (0 = all hardware threads). Each
  /// point worker owns its own jobs-wide trial pool, so ~jobs * point_jobs
  /// threads are busy at the peak; records still hit the store in point
  /// order via OrderedCheckpointer.
  int point_jobs = 1;
  enum class Mode {
    kFresh,      ///< error if the store already exists
    kOverwrite,  ///< truncate an existing store
    kResume,     ///< keep completed points, compute the rest
  };
  Mode mode = Mode::kFresh;
  /// Stop after computing this many new points (< 0 = no limit). The test
  /// suite uses this to simulate an interrupted campaign.
  int max_points = -1;
  bool quiet = false;  ///< suppress per-point progress lines on stdout
};

struct CampaignStats {
  int total = 0;     ///< grid size
  int computed = 0;  ///< points run in this invocation
  int reused = 0;    ///< points already in the store (resume)
};

/// An opened result store plus the work remaining for one campaign
/// execution. prepare_store does everything that happens before any point is
/// computed — the mode dispatch, the verbatim valid-prefix rewrite of a
/// resumed store, the timing-sidecar rebuild — leaving both writers
/// positioned to append and `pending` holding the grid points still missing,
/// in point order. run_campaign consumes it directly; the campaign service
/// uses it to shard `pending` across worker processes while writing through
/// the same writers (so server stores stay byte-identical to local runs).
struct StorePlan {
  StoreWriter writer;       ///< the JSONL store, valid prefix already written
  StoreWriter timing;       ///< the ".timing" sidecar, rebuilt on resume
  std::vector<int> pending; ///< point indices still to compute, ascending
  int total = 0;            ///< grid size
  int reused = 0;           ///< points already present (resume)
};

bool prepare_store(const CampaignSpec& spec, const std::string& out_path,
                   CampaignOptions::Mode mode, StorePlan& plan, std::string& error);

/// Execution knobs for run_point_range (the worker-process entry point).
struct RangeOptions {
  int jobs = 1;  ///< trial threads per point (sim::resolve_jobs)
};

/// Compute grid points [first, first+count) of `spec` in ascending point
/// order, invoking `emit` with each finished point's verbatim store record
/// (format_record — a pure function of (spec, point)) and its wall time.
/// This is the unit of work a campaign-service worker process executes per
/// lease: no store I/O happens here, the caller owns checkpointing. Returns
/// false on an out-of-range request or when `emit` returns false.
bool run_point_range(const CampaignSpec& spec, int first, int count,
                     const RangeOptions& options,
                     const std::function<bool(const SweepPoint& point, const std::string& record,
                                              double wall_ms)>& emit,
                     std::string& error);

/// Execute `spec` into the JSONL store at `out_path` (timing sidecar at
/// `out_path + ".timing"`). Returns false and fills `error` on spec-hash
/// mismatch, store corruption, or I/O failure.
bool run_campaign(const CampaignSpec& spec, const std::string& out_path,
                  const CampaignOptions& options, CampaignStats* stats, std::string& error);

/// The store record for one completed point (no trailing newline). Exposed
/// for tests that check byte-level determinism.
[[nodiscard]] std::string format_record(const CampaignSpec& spec, const SweepPoint& point,
                                        const PointResult& result);

}  // namespace nomc::exp
