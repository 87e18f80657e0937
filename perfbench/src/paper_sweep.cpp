// paper_sweep: paper-scale campaigns in process through exp::run_campaign
// (jobs 1 x point_jobs 4) — the Fig. 19 pair and the Fig. 30 block, both on
// the dense topology with random power, warm-up 2 s, measure 8 s, 3 trials,
// seeded with the workload seed. Many ~0.3 s trials, so per-trial set-up,
// the two-level pool, the ordered checkpointer and store appends all carry
// weight. One op = one sweep point.
#include <filesystem>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "sim/random.hpp"
#include "workload.hpp"

namespace nomc::perfbench {
namespace {

constexpr int kPointJobs = 4;
constexpr int kTrialJobs = 1;
constexpr int kSetupRepeats = 5;
/// Timed set-ups before each repetition, so the set-up median rests on many
/// samples spread over the run.
constexpr int kSetupSamplesPerRep = 8;

std::string common_lines(std::uint64_t seed) {
  return "topology = dense\n"
         "power = random\n"
         "warmup = 2\n"
         "measure = 8\n"
         "trials = 3\n"
         "seed = " + std::to_string(seed) + "\n";
}

/// Fig. 19: fixed CCA on 4 channels at 5 MHz vs DCN on 6 channels at 3 MHz,
/// 12 links on each side, as in the paper and dcn_gain_test.
std::string fig19_text(std::uint64_t seed) {
  return "name = paper_fig19\n" + common_lines(seed) +
         "sweep scheme/cfd/channels/links = fixed/5/4/3 dcn/3/6/2\n";
}

/// Fig. 30: channels 5/6/7 x {fixed, dcn} at 3 MHz.
std::string fig30_text(std::uint64_t seed) {
  return "name = paper_fig30\n" + common_lines(seed) +
         "cfd = 3\n"
         "sweep channels = 5 6 7\n"
         "sweep scheme = fixed dcn\n";
}

struct Campaign {
  std::string text;
  exp::CampaignSpec spec;
  std::vector<exp::SweepPoint> grid;
};

/// Parse both campaigns for one seed; false on a spec the parser rejects.
bool load_campaigns(std::uint64_t seed, std::vector<Campaign>& out) {
  out.clear();
  for (const std::string& text : {fig19_text(seed), fig30_text(seed)}) {
    Campaign campaign;
    campaign.text = text;
    exp::SpecError error;
    if (!exp::parse_campaign(text, campaign.spec, error)) return false;
    campaign.grid = exp::expand_grid(campaign.spec);
    out.push_back(std::move(campaign));
  }
  return true;
}

struct CampaignRun {
  int campaign = 0;  ///< 0 = Fig. 19, 1 = Fig. 30
  std::string store;
  double wall_s = 0.0;
  std::vector<double> point_ms;
};

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(RunConfig config) : config_{std::move(config)} {}

  void setup(EndToEnd& e2e, Outcome& outcome) override {
    std::filesystem::create_directories(config_.work_dir + "/setup");
    for (int r = 0; r < kSetupRepeats; ++r) e2e.setup_s.push_back(set_up(outcome));
  }

  /// What a campaign does before its first point, for both campaigns:
  /// parse the spec, expand the grid, hash it and prepare the store.
  /// Returns its host time in seconds.
  double set_up(Outcome& outcome) {
    const ScopedSpan span{"exp.setup"};
    const Clock::time_point start = Clock::now();
    std::vector<Campaign> campaigns;
    bool ok = load_campaigns(config_.seed, campaigns);
    for (const Campaign& campaign : campaigns) {
      exp::StorePlan plan;
      std::string error;
      const std::string store =
          config_.work_dir + "/setup/" + exp::spec_hash(campaign.spec) + ".jsonl";
      ok = ok && exp::prepare_store(campaign.spec, store, exp::CampaignOptions::Mode::kOverwrite,
                                    plan, error);
    }
    const double seconds = seconds_since(start);
    outcome.check(ok, "paper_sweep: spec parse or store preparation failed");
    campaigns_ = std::move(campaigns);
    return seconds;
  }

  void measure(int pass, EndToEnd& e2e, Outcome& outcome) override {
    std::vector<CampaignRun>& runs = runs_[pass];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config_.seconds));
    double trials = 0.0;
    for (int rep = 0; rep == 0 || Clock::now() < deadline; ++rep) {
      // Set-up samples spread over the run average out slow host phases.
      for (int k = 0; pass == 0 && k < kSetupSamplesPerRep; ++k) {
        e2e.setup_s.push_back(set_up(outcome));
      }
      double rep_s = 0.0;
      double rep_points = 0.0;
      for (std::size_t c = 0; c < campaigns_.size(); ++c) {
        const Campaign& campaign = campaigns_[c];
        CampaignRun run;
        run.campaign = static_cast<int>(c);
        run.store = config_.work_dir + "/p" + std::to_string(pass) + "_r" + std::to_string(rep) +
                    "_" + campaign.spec.name + ".jsonl";
        exp::CampaignOptions options;
        options.jobs = kTrialJobs;
        options.point_jobs = kPointJobs;
        options.mode = exp::CampaignOptions::Mode::kOverwrite;
        options.quiet = true;
        exp::CampaignStats stats;
        std::string error;
        const Clock::time_point start = Clock::now();
        bool ok = false;
        {
          const ScopedSpan span{"exp.run_campaign", static_cast<std::uint64_t>(runs.size() + 1)};
          ok = exp::run_campaign(campaign.spec, run.store, options, &stats, error);
        }
        run.wall_s = seconds_since(start);
        run.point_ms = read_timing_ms(run.store + ".timing");
        const auto points = static_cast<int>(campaign.grid.size());
        const bool complete = ok && stats.computed == points &&
                              static_cast<int>(run.point_ms.size()) == points;
        for (int p = 0; p < points; ++p) {
          outcome.check(complete, "paper_sweep: campaign " + campaign.spec.name + " failed: " +
                                      error);
        }
        e2e.op_ms.insert(e2e.op_ms.end(), run.point_ms.begin(), run.point_ms.end());
        rep_points += points;
        rep_s += run.wall_s;
        trials += points * campaign.spec.base.trials;
        runs.push_back(std::move(run));
      }
      e2e.ops += rep_points;
      e2e.busy_s += rep_s;
      e2e.window_rates.push_back(rep_points / rep_s);
    }
    const WindowedTail tail = windowed_tail(e2e.op_ms);
    e2e.named = {
        {"trials_per_s", e2e.busy_s > 0 ? trials / e2e.busy_s : 0.0, "trials/s"},
        {"point_ms_p50", windowed_median(e2e.op_ms), "ms"},
        {"point_ms_tail", tail.value, "ms"},
        {"point_ms_tail_percentile", tail.percentile, "%"},
        {"point_ms_samples", static_cast<double>(tail.samples), "count"},
    };
  }

  void probe_layers(LayerValues& layers, Outcome& outcome) override {
    // The trial stack, on the Fig. 19 DCN point's first trial.
    probe_trial_stack(campaigns_[0].grid[1].params, layers, outcome);

    const int repeats = 200;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (const Campaign& campaign : campaigns_) {
        const ScopedSpan span{"exp.spec"};
        exp::CampaignSpec spec;
        exp::SpecError error;
        outcome.check(exp::parse_campaign(campaign.text, spec, error) &&
                          !exp::expand_grid(spec).empty() && !exp::spec_hash(spec).empty(),
                      "paper_sweep: spec probe failed");
      }
    }
    layers["exp.spec_us"] =
        seconds_since(start) * 1e6 / (repeats * static_cast<double>(campaigns_.size()));

    // Pool and checkpoint overhead of the traced pass.
    std::vector<double> point_ms;
    double point_ms_sum = 0.0;
    double pool_s = 0.0;
    for (const CampaignRun& run : runs_[1]) {
      for (const double ms : run.point_ms) point_ms_sum += ms;
      point_ms.insert(point_ms.end(), run.point_ms.begin(), run.point_ms.end());
      pool_s += run.wall_s * kPointJobs * kTrialJobs;
    }
    const double busy = pool_s > 0 ? point_ms_sum / 1e3 / pool_s : 0.0;
    layers["exp.point_ms"] = median(point_ms);
    layers["sim.pool_busy_ratio"] = busy;
    layers["exp.campaign_overhead_ratio"] = 1.0 - busy;

    // The index over the Fig. 30 store of the first untraced repetition.
    const CampaignRun& fig30 = runs_[0][1];
    const std::string hash = exp::spec_hash(campaigns_[1].spec);
    std::vector<double> open_ms;
    double lookup_s = 0.0;
    std::uint64_t lookups = 0;
    for (int r = 0; r < 21; ++r) {
      exp::StoreIndex index;
      std::string error;
      Clock::time_point t = Clock::now();
      bool ok = false;
      {
        const ScopedSpan span{"exp.index_open"};
        ok = index.open(fig30.store, hash, error);
      }
      open_ms.push_back(seconds_since(t) * 1e3);
      outcome.check(ok, "paper_sweep: index open failed: " + error);
      t = Clock::now();
      for (int p = 0; ok && p < static_cast<int>(campaigns_[1].grid.size()); ++p) {
        const ScopedSpan span{"exp.index_lookup"};
        const exp::StoreIndex::Entry* entry = index.find(hash, p);
        exp::ResultRecord record;
        outcome.check(entry != nullptr && index.read_record(*entry, record, error) &&
                          record.point == p,
                      "paper_sweep: index lookup failed");
        ++lookups;
      }
      lookup_s += seconds_since(t);
    }
    layers["exp.index_open_ms"] = median(open_ms);
    layers["exp.index_lookup_us"] = lookups > 0 ? lookup_s * 1e6 / static_cast<double>(lookups) : 0.0;
    layers["exp.store_bytes_per_point"] =
        static_cast<double>(std::filesystem::file_size(fig30.store)) /
        static_cast<double>(campaigns_[1].grid.size());
  }

  void verify(Outcome& outcome) override {
    for (const auto& runs : runs_) {
      for (const CampaignRun& run : runs) {
        const Campaign& campaign = campaigns_[static_cast<std::size_t>(run.campaign)];
        exp::StoreScan scan;
        std::string error;
        const bool read = exp::scan_store(run.store, exp::spec_hash(campaign.spec), scan, error) &&
                          scan.records.size() == campaign.grid.size();
        if (!outcome.check(read, "paper_sweep: store unreadable: " + run.store)) continue;
        // Points come in fixed/DCN pairs, the fixed point first.
        for (std::size_t p = 0; p + 1 < scan.records.size(); p += 2) {
          const double fixed = scan.records[p].overall_pps;
          const double dcn = scan.records[p + 1].overall_pps;
          const double gain = fixed > 0 ? dcn / fixed - 1.0 : 0.0;
          outcome.check(campaign.grid[p].params.scheme == "fixed" &&
                            campaign.grid[p + 1].params.scheme == "dcn",
                        "paper_sweep: " + campaign.spec.name + " is not in fixed/DCN pairs");
          if (run.campaign == 0) {
            // Fig. 19 must show the paper's gain, within the band the
            // dcn_gain_test locks (30 % .. 80 %). Denser channels alone give
            // fixed CCA much of it, so the Fig. 30 pairs test DCN itself.
            outcome.check(gain > 0.30 && gain < 0.80, "paper_sweep: Fig. 19 gain " +
                                                          number_text(gain) +
                                                          " outside 30 %..80 % in " + run.store);
          } else {
            // Fig. 30, same channels: DCN must change the outcome (a no-op
            // adjustor would equal fixed CCA bit for bit) and not lose 10 %.
            outcome.check(dcn != fixed && gain > -0.10,
                          "paper_sweep: Fig. 30 DCN vs fixed CCA " + number_text(gain) + " in " +
                              run.store);
          }
        }
      }
    }

    // One sampled point, recomputed serially, must byte-equal its store line.
    sim::RandomStream pick{config_.seed, 2};
    const auto c = static_cast<std::size_t>(pick.uniform_int(0, 1));
    const Campaign& campaign = campaigns_[c];
    const auto point = static_cast<int>(
        pick.uniform_int(0, static_cast<std::int64_t>(campaign.grid.size()) - 1));
    std::string serial;
    std::string error;
    const bool ran = exp::run_point_range(
        campaign.spec, point, 1, exp::RangeOptions{.jobs = 1},
        [&](const exp::SweepPoint&, const std::string& record, double) {
          serial = record;
          return true;
        },
        error);
    exp::StoreIndex index;
    std::string stored;
    const std::string hash = exp::spec_hash(campaign.spec);
    const bool opened = index.open(runs_[0][c].store, hash, error);
    const exp::StoreIndex::Entry* entry = opened ? index.find(hash, point) : nullptr;
    const bool read = entry != nullptr && index.read_line(*entry, stored, error);
    outcome.check(ran && read && serial == stored,
                  "paper_sweep: serial recompute of " + campaign.spec.name + " point " +
                      std::to_string(point) + " differs from the store");
  }

 private:
  RunConfig config_;
  std::vector<Campaign> campaigns_;
  std::vector<CampaignRun> runs_[2];  // per pass
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(const RunConfig& config) {
  return std::make_unique<PaperSweep>(config);
}

}  // namespace nomc::perfbench
