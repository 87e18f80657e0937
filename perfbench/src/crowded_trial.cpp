// crowded_trial: one thread runs 128-node random-field trials one after
// another through the public net::Scenario API — 16 channels x 4 links at
// CFD 3 MHz, DCN, random power, per-trial seeds drawn from the workload
// seed. Per-pair RSS work in phy::Medium grows with the listener count, so
// the PHY/MAC hot path dominates; no campaign or service layer runs. One op
// = one 50 ms slice of simulated time. The thread moves to the next CPU
// after every slice (CpuRotation), so no single vCPU's speed decides a run.
#include <deque>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "sim/random.hpp"
#include "workload.hpp"

namespace nomc::perfbench {
namespace {

constexpr int kSetupRepeats = 3;
/// Extra timed set-ups before each later trial, built and dropped, so the
/// set-up median rests on many samples spread over the run.
constexpr int kSetupSamplesPerTrial = 8;
constexpr std::int64_t kSliceMs = 50;

std::string trial_text(std::uint64_t trial_seed) {
  return "name = crowded_trial\n"
         "topology = random\n"
         "band-start = 2405\n"
         "cfd = 3\n"
         "channels = 16\n"
         "links = 4\n"
         "scheme = dcn\n"
         "power = random\n"
         "warmup = 0.5\n"
         "measure = 1.5\n"
         "trials = 1\n"
         "seed = " + std::to_string(trial_seed) + "\n";
}

/// A trial whose scenario is built and ready to run.
struct Prepared {
  TrialPlan plan;
  std::unique_ptr<net::Scenario> scenario;
};

class CrowdedTrial final : public Workload {
 public:
  explicit CrowdedTrial(RunConfig config) : config_{std::move(config)} {
    sim::RandomStream seeds{config_.seed, 3};
    for (int i = 0; i < 256; ++i) {
      trial_seeds_.push_back(1 + seeds.next_u64() % 2000000000ULL);
    }
  }

  void setup(EndToEnd& e2e, Outcome& outcome) override {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point start = Clock::now();
      prepared_.push_back(prepare(i, outcome));
      e2e.setup_s.push_back(seconds_since(start));
    }
  }

  void measure(int pass, EndToEnd& e2e, Outcome& outcome) override {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config_.seconds));
    std::vector<TrialResult>& results = results_[pass];
    double simulated_s = 0.0;
    CpuRotation rotation;
    for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
      Prepared trial;
      if (pass == 0 && !prepared_.empty()) {
        trial = std::move(prepared_.front());
        prepared_.pop_front();
      } else {
        // Later set-ups are timed too, so the samples span the whole run.
        for (int k = 0; pass == 0 && k < kSetupSamplesPerTrial; ++k) {
          const Clock::time_point start = Clock::now();
          const Prepared dropped = prepare(i, outcome);
          e2e.setup_s.push_back(seconds_since(start));
        }
        trial = prepare(i, outcome);
      }
      {
        const ScopedSpan span{"net.run", static_cast<std::uint64_t>(i + 1)};
        double trial_s = 0.0;
        double slices = 0.0;
        run_in_slices(trial.plan, *trial.scenario, sim::SimTime::milliseconds(kSliceMs),
                      [&](double host_ms) {
                        e2e.op_ms.push_back(host_ms);
                        trial_s += host_ms / 1e3;
                        slices += 1.0;
                        rotation.step();
                      });
        e2e.busy_s += trial_s;
        e2e.ops += slices;
        e2e.window_rates.push_back(slices / trial_s);
      }
      simulated_s += (trial.plan.warmup + trial.plan.measure).to_seconds();
      results.push_back(collect_trial(*trial.scenario));
      outcome.check(results.back().overall_pps > 0.0,
                    "crowded_trial: trial " + std::to_string(i) + " delivered nothing");
    }
    const WindowedTail tail = windowed_tail(e2e.op_ms);
    e2e.named = {
        {"sim_s_per_host_s", e2e.busy_s > 0 ? simulated_s / e2e.busy_s : 0.0, "s/s"},
        {"trials", static_cast<double>(results.size()), "count"},
        {"slice_ms_p50", windowed_median(e2e.op_ms), "ms"},
        {"slice_ms_tail", tail.value, "ms"},
        {"slice_ms_tail_percentile", tail.percentile, "%"},
        {"slice_ms_samples", static_cast<double>(tail.samples), "count"},
    };
  }

  void probe_layers(LayerValues& layers, Outcome& outcome) override {
    exp::CampaignSpec spec;
    exp::SpecError error;
    const std::string text = trial_text(trial_seeds_[0]);
    outcome.check(exp::parse_campaign(text, spec, error), "crowded_trial: spec rejected");
    probe_trial_stack(spec.base, layers, outcome);

    const int repeats = 500;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      const ScopedSpan span{"exp.spec"};
      exp::CampaignSpec again;
      outcome.check(exp::parse_campaign(text, again, error) && exp::expand_grid(again).size() == 1 &&
                        !exp::spec_hash(again).empty(),
                    "crowded_trial: spec probe failed");
    }
    layers["exp.spec_us"] = seconds_since(start) * 1e6 / repeats;
    layers["exp.point_ms"] = point_ms_;
  }

  void verify(Outcome& outcome) override {
    // A traced trial must match its untraced twin bit for bit.
    const std::size_t both = std::min(results_[0].size(), results_[1].size());
    for (std::size_t i = 0; i < both; ++i) {
      outcome.check(results_[0][i].identical(results_[1][i]),
                    "crowded_trial: traced trial " + std::to_string(i) +
                        " differs from the untraced run");
    }
    // The first trial, recomputed by the campaign engine as a one-trial
    // point, must report the same throughputs bit for bit.
    exp::CampaignSpec spec;
    exp::SpecError spec_error;
    std::string error;
    std::string record_line;
    const bool parsed = exp::parse_campaign(trial_text(trial_seeds_[0]), spec, spec_error);
    const bool ran = parsed && exp::run_point_range(
                                   spec, 0, 1, exp::RangeOptions{.jobs = 1},
                                   [&](const exp::SweepPoint&, const std::string& record,
                                       double wall_ms) {
                                     record_line = record;
                                     point_ms_ = wall_ms;
                                     return true;
                                   },
                                   error);
    exp::ResultRecord record;
    const bool read = ran && exp::parse_record(record_line, record, error);
    const TrialResult& first = results_[0].front();
    bool same = read && record.pps.size() == first.network_pps.size() &&
                record.overall_pps == first.overall_pps;
    for (std::size_t n = 0; same && n < record.pps.size(); ++n) {
      same = record.pps[n] == first.network_pps[n];
    }
    outcome.check(same, "crowded_trial: exp::run_point_range disagrees with the sliced run");
  }

 private:
  Prepared prepare(int index, Outcome& outcome) {
    const ScopedSpan span{"net.setup", static_cast<std::uint64_t>(index + 1)};
    Prepared trial;
    exp::CampaignSpec spec;
    exp::SpecError error;
    const std::size_t slot = static_cast<std::size_t>(index) % trial_seeds_.size();
    outcome.check(exp::parse_campaign(trial_text(trial_seeds_[slot]), spec, error),
                  "crowded_trial: spec rejected: " + error.str());
    trial.plan = plan_trial(exp::expand_grid(spec).front().params);
    trial.scenario = std::make_unique<net::Scenario>(trial.plan.config);
    trial.scenario->add_networks(trial.plan.networks, trial.plan.scheme);
    return trial;
  }

  RunConfig config_;
  std::vector<std::uint64_t> trial_seeds_;
  std::deque<Prepared> prepared_;
  std::vector<TrialResult> results_[2];  // per pass, in trial order
  double point_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_crowded_trial(const RunConfig& config) {
  return std::make_unique<CrowdedTrial>(config);
}

}  // namespace nomc::perfbench
