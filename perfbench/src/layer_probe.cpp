#include "layer_probe.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string_view>

#include "exp/campaign.hpp"
#include "net/scheme_names.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/modulation.hpp"
#include "phy/timing.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace nomc::perfbench {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_counters(const stats::PacketCounters& a, const stats::PacketCounters& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Replay cost of one PHY call kind: calls made and host time they took.
struct CallCost {
  std::uint64_t calls = 0;
  double ns = 0.0;

  template <typename Fn>
  auto time(Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto value = fn();
    ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    ++calls;
    return value;
  }
  [[nodiscard]] double per_call() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

/// One step of the replayed trial, ordered like the simulator orders work
/// at a shared instant: receptions close before their frame leaves the air,
/// and frames leave before new ones start.
struct ReplayStep {
  enum Kind { kReceive = 0, kEnd = 1, kSense = 2, kBegin = 3 };
  std::int64_t at = 0;
  Kind kind = kBegin;
  std::uint32_t node = 0;
  double tx_power_dbm = 0.0;
  std::size_t order = 0;  // trace order, the final tie-break
};

/// Re-drive the traced frame stream through a fresh phy::Medium holding the
/// trial's nodes, timing the medium's public calls at the traced instants.
void replay_phy(const TrialPlan& plan, const sim::MemoryTraceSink& trace, LayerValues& layers,
                Outcome& outcome) {
  phy::MediumConfig config = plan.config.medium;
  config.seed = plan.config.seed;
  phy::Medium medium{config};
  std::vector<phy::Mhz> channel_of;
  std::vector<phy::NodeId> partner_of;
  for (const net::NetworkSpec& network : plan.networks) {
    for (const net::LinkSpec& link : network.links) {
      const phy::NodeId sender = medium.add_node(link.sender_pos);
      const phy::NodeId receiver = medium.add_node(link.receiver_pos);
      channel_of.push_back(network.channel);
      channel_of.push_back(network.channel);
      partner_of.push_back(receiver);
      partner_of.push_back(sender);
    }
  }

  const sim::SimTime frame_time = phy::frame_duration(plan.config.psdu_bytes);
  std::vector<ReplayStep> steps;
  const auto& records = trace.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& record = records[i];
    if (record.node >= channel_of.size()) continue;
    const std::string_view event = record.event;
    const std::int64_t at = record.at.ticks();
    if (event == "tx_start") {
      // The clear CCA that let this frame go, then the frame itself.
      steps.push_back({at, ReplayStep::kSense, record.node, 0.0, i});
      steps.push_back({at, ReplayStep::kBegin, record.node, record.value, i});
      steps.push_back({at + frame_time.ticks(), ReplayStep::kEnd, record.node, 0.0, i});
    } else if (event == "cca_busy") {
      steps.push_back({at, ReplayStep::kSense, record.node, 0.0, i});
    } else if (event == "rx_ok" || event == "rx_fail") {
      steps.push_back({at, ReplayStep::kReceive, record.node, 0.0, i});
    }
  }
  std::sort(steps.begin(), steps.end(), [](const ReplayStep& a, const ReplayStep& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });

  CallCost begin_end;
  CallCost sense;
  CallCost interference;
  std::vector<double> sinr_db;
  std::vector<phy::Frame> on_air(channel_of.size());  // per sender; id 0 = idle
  std::vector<std::int64_t> ends_at(channel_of.size(), -1);
  std::uint64_t unmatched = 0;
  for (const ReplayStep& step : steps) {
    const phy::Mhz channel = channel_of[step.node];
    switch (step.kind) {
      case ReplayStep::kBegin: {
        phy::Frame frame;
        frame.id = medium.allocate_frame_id();
        frame.src = step.node;
        frame.dst = partner_of[step.node];
        frame.channel = channel;
        frame.tx_power = phy::Dbm{step.tx_power_dbm};
        frame.psdu_bytes = plan.config.psdu_bytes;
        frame.src_pos = medium.position(step.node);
        begin_end.time([&] {
          medium.begin_tx(frame);
          return 0;
        });
        on_air[step.node] = frame;
        ends_at[step.node] = step.at + frame_time.ticks();
        break;
      }
      case ReplayStep::kEnd: {
        phy::Frame& frame = on_air[step.node];
        if (frame.id == 0) break;
        // Timed into the same bucket without a second count: one frame is
        // one begin/end pair.
        const Clock::time_point start = Clock::now();
        medium.end_tx(frame.id);
        begin_end.ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
        frame.id = 0;
        break;
      }
      case ReplayStep::kSense:
        (void)sense.time([&] { return medium.sense_energy(step.node, channel); });
        break;
      case ReplayStep::kReceive: {
        // The frame this reception decoded ends now: usually the partner's,
        // otherwise another co-channel sender's the radio locked onto.
        const phy::Frame* found = nullptr;
        const auto ends_now = [&](phy::NodeId sender) {
          return on_air[sender].id != 0 && ends_at[sender] == step.at &&
                 on_air[sender].channel.value == channel.value;
        };
        if (ends_now(partner_of[step.node])) found = &on_air[partner_of[step.node]];
        for (phy::NodeId sender = 0; found == nullptr && sender < on_air.size(); ++sender) {
          if (sender != step.node && ends_now(sender)) found = &on_air[sender];
        }
        if (found == nullptr) {
          ++unmatched;
          break;
        }
        const phy::Frame& wanted = *found;
        const phy::Dbm noise = interference.time(
            [&] { return medium.interference(step.node, channel, wanted.id); });
        sinr_db.push_back((medium.rss(wanted, step.node) - noise).value);
        break;
      }
    }
  }
  outcome.check(unmatched == 0, "phy replay: a traced reception had no frame on the air");

  // The BER curve is a pure function: time it over the whole replayed
  // SINR sample in one batch, so clock reads do not swamp the call.
  double ber_sum = 0.0;
  const int repeats = 20;
  const Clock::time_point ber_start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const double sinr : sinr_db) ber_sum += phy::oqpsk_ber(sinr);
  }
  const double ber_ns = std::chrono::duration<double, std::nano>(Clock::now() - ber_start).count();
  outcome.check(ber_sum >= 0.0, "phy replay: negative bit error rate");
  const double ber_calls = static_cast<double>(sinr_db.size()) * repeats;

  layers["phy.begin_end_tx_ns"] = begin_end.per_call();
  layers["phy.sense_energy_ns"] = sense.per_call();
  layers["phy.interference_ns"] = interference.per_call();
  layers["phy.oqpsk_ber_ns"] = ber_calls > 0 ? ber_ns / ber_calls : 0.0;
}

/// Time schedule_at + step on a fresh scheduler holding the trial's mean
/// pending depth, with delays drawn from the trial's inter-event gaps.
double time_scheduler(const std::vector<std::int64_t>& delays, std::size_t depth,
                      std::uint64_t seed) {
  // Each executed event schedules its successor, so the depth holds.
  struct Load {
    Load(const std::vector<std::int64_t>& mix, std::uint64_t stream_seed)
        : delays{mix}, pick{stream_seed, 17} {}
    sim::SimTime next_delay() {
      const auto last = static_cast<std::int64_t>(delays.size()) - 1;
      return sim::SimTime::nanoseconds(delays[static_cast<std::size_t>(pick.uniform_int(0, last))]);
    }
    void fire() { scheduler.schedule_at(scheduler.now() + next_delay(), [this] { fire(); }); }

    sim::Scheduler scheduler;
    const std::vector<std::int64_t>& delays;
    sim::RandomStream pick;
  };
  if (delays.empty() || depth == 0) return 0.0;
  auto load = std::make_unique<Load>(delays, seed);
  for (std::size_t i = 0; i < depth; ++i) {
    load->scheduler.schedule_at(load->next_delay(), [l = load.get()] { l->fire(); });
  }
  const std::uint64_t ops = 400000;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) load->scheduler.step();
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
         static_cast<double>(ops);
}

}  // namespace

TrialPlan plan_trial(const exp::PointParams& params) {
  // Mirrors exp::run_point's first trial; probe_trial_stack and
  // crowded_trial's verify() check that the two agree.
  TrialPlan plan;
  (void)net::parse_scheme(params.scheme, plan.scheme);  // the spec parser validated it
  const auto channels = phy::evenly_spaced(phy::Mhz{params.band_start_mhz},
                                           phy::Mhz{params.cfd_mhz}, params.channels);
  net::RandomCaseConfig topology;
  topology.links_per_network = params.links;
  if (params.power_dbm.has_value()) {
    topology = topology.with_fixed_power(phy::Dbm{*params.power_dbm});
  }
  sim::RandomStream placement{params.seed, /*index=*/999};
  if (params.topology == "clustered") {
    plan.networks = net::case2_clustered(channels, placement, topology);
  } else if (params.topology == "random") {
    plan.networks = net::case3_random(channels, placement, topology);
  } else {
    plan.networks = net::case1_dense(channels, placement, topology);
  }
  plan.config.seed = params.seed;
  plan.config.psdu_bytes = params.psdu_bytes;
  plan.config.fixed_cca_threshold = phy::Dbm{params.cca_dbm};
  plan.warmup = sim::SimTime::seconds(params.warmup_s);
  plan.measure = sim::SimTime::seconds(params.measure_s);
  return plan;
}

bool TrialResult::identical(const TrialResult& other) const {
  if (network_pps.size() != other.network_pps.size() || senders.size() != other.senders.size() ||
      receivers.size() != other.receivers.size() || events != other.events ||
      !same_bits(overall_pps, other.overall_pps)) {
    return false;
  }
  for (std::size_t i = 0; i < network_pps.size(); ++i) {
    if (!same_bits(network_pps[i], other.network_pps[i])) return false;
  }
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (!same_counters(senders[i], other.senders[i]) ||
        !same_counters(receivers[i], other.receivers[i])) {
      return false;
    }
  }
  return true;
}

TrialResult collect_trial(net::Scenario& scenario) {
  TrialResult result;
  result.overall_pps = scenario.overall_throughput();
  result.events = scenario.scheduler().executed();
  for (int n = 0; n < scenario.network_count(); ++n) {
    const net::Scenario::NetworkResult network = scenario.network_result(n);
    result.network_pps.push_back(network.throughput_pps);
    for (const auto& link : network.links) {
      result.senders.push_back(link.sender);
      result.receivers.push_back(link.receiver);
    }
  }
  return result;
}

void probe_trial_stack(const exp::PointParams& params, LayerValues& layers, Outcome& outcome) {
  const TrialPlan plan = plan_trial(params);
  // Untraced reference: one Scenario::run call.
  TrialResult reference;
  double setup_ms = 0.0;
  double run_s = 0.0;
  {
    const ScopedSpan probe{"net.probe_untraced"};
    Clock::time_point start = Clock::now();
    std::unique_ptr<net::Scenario> scenario;
    {
      const ScopedSpan span{"net.setup"};
      scenario = std::make_unique<net::Scenario>(plan.config);
      scenario->add_networks(plan.networks, plan.scheme);
    }
    setup_ms = seconds_since(start) * 1e3;
    start = Clock::now();
    {
      const ScopedSpan span{"net.run"};
      scenario->run(plan.warmup, plan.measure);
    }
    run_s = seconds_since(start);
    reference = collect_trial(*scenario);
  }
  {
    // The engine runs trial 0 of a point with the point's own seed.
    exp::PointParams one = params;
    one.trials = 1;
    sim::ParallelRunner runner{1};
    const exp::PointResult engine = exp::run_point(one, runner);
    bool same = engine.pps.size() == reference.network_pps.size() &&
                same_bits(engine.overall_pps, reference.overall_pps);
    for (std::size_t n = 0; same && n < engine.pps.size(); ++n) {
      same = same_bits(engine.pps[n], reference.network_pps[n]);
    }
    outcome.check(same, "trial stack: the probed trial differs from exp::run_point's");
  }

  // Traced twin, run in slices so the pending depth can be sampled.
  sim::MemoryTraceSink trace;
  TrialResult traced;
  double depth_sum = 0.0;
  std::uint64_t depth_samples = 0;
  {
    const ScopedSpan probe{"net.probe_traced"};
    net::Scenario scenario{plan.config};
    scenario.scheduler().set_trace(&trace);
    scenario.add_networks(plan.networks, plan.scheme);
    run_in_slices(plan, scenario, sim::SimTime::milliseconds(50), [&](double) {
      depth_sum += static_cast<double>(scenario.scheduler().pending());
      ++depth_samples;
    });
    scenario.scheduler().set_trace(nullptr);
    traced = collect_trial(scenario);
  }
  outcome.check(traced.identical(reference),
                "trial stack: traced sliced run differs from the untraced run");

  const double events = static_cast<double>(reference.events);
  layers["sim.events"] = events;
  layers["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;
  layers["net.setup_ms"] = setup_ms;
  layers["net.run_s"] = run_s;

  const auto count = [&](const char* category, const char* event) {
    return static_cast<double>(trace.count(category, event));
  };
  const double rx_ok = count("phy", "rx_ok");
  const double rx_fail = count("phy", "rx_fail");
  layers["phy.tx_frames"] = count("phy", "tx_start");
  layers["phy.rx_fail_ratio"] = rx_ok + rx_fail > 0 ? rx_fail / (rx_ok + rx_fail) : 0.0;
  layers["dcn.threshold_moves"] = count("dcn", "threshold_lower") + count("dcn", "threshold_raise");

  stats::PacketCounters sent;
  stats::PacketCounters received;
  for (const auto& counters : reference.senders) sent += counters;
  for (const auto& counters : reference.receivers) received += counters;
  const double attempts = static_cast<double>(sent.cca_backoffs + sent.sent);
  layers["mac.cca_busy_ratio"] =
      attempts > 0 ? static_cast<double>(sent.cca_backoffs) / attempts : 0.0;
  layers["mac.access_failures"] = static_cast<double>(sent.cca_failures);
  layers["mac.delivery_ratio"] =
      sent.sent > 0 ? static_cast<double>(received.received) / static_cast<double>(sent.sent)
                    : 0.0;

  // Delay mix: gaps between consecutive traced events of one node.
  std::size_t nodes = 0;
  for (const net::NetworkSpec& network : plan.networks) nodes += 2 * network.links.size();
  std::vector<std::int64_t> last_at(nodes, -1);
  std::vector<std::int64_t> delays;
  for (const sim::TraceRecord& record : trace.records()) {
    if (record.node >= last_at.size()) continue;
    std::int64_t& last = last_at[record.node];
    if (last >= 0 && record.at.ticks() > last) delays.push_back(record.at.ticks() - last);
    last = record.at.ticks();
  }
  const auto depth = static_cast<std::size_t>(
      depth_samples > 0 ? depth_sum / static_cast<double>(depth_samples) + 0.5 : 0.0);
  {
    const ScopedSpan span{"sim.scheduler_load"};
    layers["sim.sched_ns_per_op"] = time_scheduler(delays, depth, plan.config.seed);
  }
  {
    const ScopedSpan span{"phy.replay"};
    replay_phy(plan, trace, layers, outcome);
  }
}

}  // namespace nomc::perfbench
