// service_mix: the real nomc-serve (--workers 2) over a data directory that
// set-up warms with a store of a few thousand small points. One client
// process drives two closed-loop connections: a reader (mostly `query`,
// plus cache-hit `submit` and `status`, no think time) and a writer (a cold
// `submit` of a fresh small campaign, then an `export` of it, one cycle per
// 40 reads). The protocol, spec hash,
// index lookups and the lease loop dominate; little is simulated. One op =
// one request.
//
// nomc-lint: allow-file(svc-raw-fork) — the workload is the real nomc-serve
// binary, so the benchmark must start and reap it itself; svc::WorkerPool
// supervises the server's own workers and is part of what is measured.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "workload.hpp"

namespace nomc::perfbench {
namespace {

// The traffic below is an assumption, not a measurement: nothing in the
// repository records what real clients send. Only "mostly query, plus
// cache-hit submit and status, beside cold submits and exports" is given;
// the shares, the write rate and the store and campaign sizes are chosen
// here and are to be revisited once real traffic is known.
constexpr int kWarmPoints = 2000;
constexpr int kSetupRepeats = 4;
constexpr int kColdPoints = 4;
constexpr int kColdNetworks = 2;  // channels in a cold campaign
/// Reader shares: query, then cache-hit submit; the rest is status.
constexpr double kQueryShare = 0.90;
constexpr double kHitSubmitShare = 0.05;
/// The writer starts one cold submit + export cycle per this many reads.
constexpr std::uint64_t kReadsPerWrite = 40;

/// A tiny point: one short trial, so requests, not simulation, dominate.
std::string small_point_lines(int channels) {
  return "channels = " + std::to_string(channels) +
         "\n"
         "links = 1\n"
         "power = 0\n"
         "warmup = 0.02\n"
         "measure = 0.05\n"
         "trials = 1\n";
}

std::string seed_sweep(sim::RandomStream& seeds, int points) {
  std::string line = "sweep seed =";
  for (int p = 0; p < points; ++p) {
    line += ' ';
    line += std::to_string(1 + seeds.next_u64() % 1000000000ULL);
  }
  return line + "\n";
}

std::string submit_request(const std::string& spec_text) {
  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, spec_text);
  return request + "}";
}

std::string hash_request(const char* op, const std::string& hash) {
  std::string request = std::string{"{\"op\":\""} + op + "\",\"spec_hash\":";
  exp::json_append_string(request, hash);
  return request + "}";
}

std::string hash_of(const std::string& spec_text) {
  exp::CampaignSpec spec;
  exp::SpecError error;
  return exp::parse_campaign(spec_text, spec, error) ? exp::spec_hash(spec) : std::string{};
}

bool reply_ok(const exp::JsonValue& reply) {
  const exp::JsonValue* ok = reply.find("ok");
  return ok != nullptr && ok->type == exp::JsonValue::Type::kBool && ok->boolean;
}

double number_of(const exp::JsonValue& reply, const char* key) {
  const exp::JsonValue* value = reply.find(key);
  return value != nullptr && value->type == exp::JsonValue::Type::kNumber ? value->number : -1.0;
}

/// A nomc-serve child process: started by start(), reaped by stop().
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool start(const std::string& dir, std::string& error) {
    std::filesystem::create_directories(dir);
    socket_ = dir + "/nomc.sock";
    const std::string data = dir + "/data";
    const std::string log = dir + "/server.log";
    pid_ = ::fork();
    if (pid_ < 0) {
      error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      if (std::freopen(log.c_str(), "w", stdout) == nullptr) std::_Exit(126);
      if (std::freopen(log.c_str(), "a", stderr) == nullptr) std::_Exit(126);
      ::execl(PERFBENCH_SERVE_BIN, PERFBENCH_SERVE_BIN, "--socket", socket_.c_str(),
              "--data-dir", data.c_str(), "--workers", "2", "--quiet",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    // Ready once the socket accepts a connection.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < give_up) {
      svc::Client probe;
      std::string ignored;
      if (probe.connect(socket_, ignored)) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "nomc-serve exited during start-up (see " + log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    error = "nomc-serve did not open " + socket_;
    return false;
  }

  /// Ask for a clean shutdown, then reap; SIGKILL if it does not exit.
  bool stop() {
    if (pid_ <= 0) return true;
    bool clean = false;
    {
      svc::Client client;
      std::string error;
      exp::JsonValue reply;
      clean = client.connect(socket_, error) &&
              client.call(R"({"op":"shutdown"})", reply, error) && reply_ok(reply);
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (Clock::now() < give_up) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// One timed request: its kind, host interval and whether it succeeded.
struct Op {
  enum Kind { kQuery, kHit, kStatus, kCold, kExport };
  Kind kind = kQuery;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// A cold campaign the writer submitted, kept for the post-run check.
struct ColdSubmit {
  std::string text;
  std::string hash;
  double submit_ms = 0.0;
};

struct ConnectionLog {
  std::vector<Op> ops;
  std::vector<ColdSubmit> cold;
  std::uint64_t export_rows = 0;
  double export_s = 0.0;
};

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(RunConfig config) : config_{std::move(config)} {
    sim::RandomStream seeds{config_.seed, 4};
    warm_text_ = "name = service_warm\n" + small_point_lines(1) + seed_sweep(seeds, kWarmPoints);
    hit_text_ = "name = service_hit\n" + small_point_lines(1) + seed_sweep(seeds, kColdPoints);
    warm_hash_ = hash_of(warm_text_);
    hit_hash_ = hash_of(hit_text_);
  }
  ~ServiceMix() override { teardown(); }

  void setup(EndToEnd& e2e, Outcome& outcome) override {
    // Set-up = start the server and warm its store; repeated on fresh
    // directories, the last server stays up for the timed phase.
    for (int r = 0; r < kSetupRepeats; ++r) {
      if (server_ != nullptr) outcome.check(server_->stop(), "service_mix: shutdown not clean");
      dir_ = config_.work_dir + "/serve" + std::to_string(r);
      server_ = std::make_unique<ServerProcess>();
      const Clock::time_point start = Clock::now();
      std::string error;
      bool ok = server_->start(dir_, error);
      svc::Client client;
      exp::JsonValue reply;
      ok = ok && client.connect(server_->socket_path(), error);
      ok = ok && client.call(submit_request(warm_text_), reply, error) && reply_ok(reply);
      ok = ok && client.call(submit_request(hit_text_), reply, error) && reply_ok(reply);
      e2e.setup_s.push_back(seconds_since(start));
      if (!outcome.check(ok, "service_mix: set-up failed: " + error)) return;
    }
    // The records queries must return, read back from disk.
    exp::StoreIndex index;
    std::string error;
    bool ok = index.open(store_path(warm_hash_), warm_hash_, error);
    warm_lines_.assign(kWarmPoints, std::string{});
    for (int p = 0; ok && p < kWarmPoints; ++p) {
      const exp::StoreIndex::Entry* entry = index.find(warm_hash_, p);
      ok = entry != nullptr && index.read_line(*entry, warm_lines_[static_cast<std::size_t>(p)], error);
    }
    outcome.check(ok, "service_mix: warm store unreadable: " + error);
  }

  void measure(int pass, EndToEnd& e2e, Outcome& outcome) override {
    if (server_ == nullptr || warm_lines_.empty()) return;
    ConnectionLog (&logs)[2] = logs_[pass];
    Outcome outcomes[2];
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config_.seconds));
    std::latch both_connected{2};
    {
      const std::lock_guard<std::mutex> lock{reads_mutex_};
      reads_done_ = 0;
    }
    const Clock::time_point start = Clock::now();
    const std::int64_t start_ns = tracer().now_ns();
    {
      sim::ParallelRunner connections{2};
      connections.for_each(2, [&](int c) {
        svc::Client client;
        std::string error;
        const bool connected = client.connect(server_->socket_path(), error);
        both_connected.arrive_and_wait();
        if (!outcomes[c].check(connected, "service_mix: connect failed: " + error)) return;
        if (c == 0) {
          read_loop(client, pass, deadline, logs[0], outcomes[0]);
        } else {
          write_loop(client, pass, deadline, logs[1], outcomes[1]);
        }
      });
    }
    const double wall_s = seconds_since(start);
    for (int c = 0; c < 2; ++c) {
      outcome.attempted += outcomes[c].attempted;
      outcome.failed += outcomes[c].failed;
      if (outcome.first_failure.empty()) outcome.first_failure = outcomes[c].first_failure;
    }

    // Both connections' requests in the order they were sent.
    std::vector<Op> ops = logs[0].ops;
    ops.insert(ops.end(), logs[1].ops.begin(), logs[1].ops.end());
    std::sort(ops.begin(), ops.end(),
              [](const Op& a, const Op& b) { return a.start_ns < b.start_ns; });
    // Requests completed in each whole second of the timed phase.
    std::vector<double> per_second(static_cast<std::size_t>(wall_s), 0.0);
    std::vector<double> query_us, hit_us, cold_ms;
    for (const Op& op : ops) {
      const auto second = static_cast<std::size_t>((op.end_ns - start_ns) / 1000000000);
      if (second < per_second.size()) per_second[second] += 1.0;
      e2e.op_ms.push_back(op.us() / 1e3);
      if (op.kind == Op::kQuery) query_us.push_back(op.us());
      if (op.kind == Op::kHit) hit_us.push_back(op.us());
      if (op.kind == Op::kCold) cold_ms.push_back(op.us() / 1e3);
    }
    e2e.ops += static_cast<double>(e2e.op_ms.size());
    e2e.busy_s += wall_s;
    e2e.window_rates = per_second;
    const WindowedTail query_tail = windowed_tail(query_us);
    const WindowedTail cold_tail = windowed_tail(cold_ms);
    e2e.named = {
        {"query_us_p50", windowed_median(query_us), "us"},
        {"query_us_tail", query_tail.value, "us"},
        {"query_us_tail_percentile", query_tail.percentile, "%"},
        {"query_samples", static_cast<double>(query_tail.samples), "count"},
        {"submit_hit_us_p50", windowed_median(hit_us), "us"},
        {"submit_cold_ms_p50", windowed_median(cold_ms), "ms"},
        {"submit_cold_ms_tail", cold_tail.value, "ms"},
        {"submit_cold_ms_tail_percentile", cold_tail.percentile, "%"},
        {"submit_cold_samples", static_cast<double>(cold_tail.samples), "count"},
    };
  }

  void probe_layers(LayerValues& layers, Outcome& outcome) override {
    const ConnectionLog& reader = logs_[1][0];
    const ConnectionLog& log = logs_[1][1];  // the writer's
    if (server_ == nullptr || log.cold.empty()) return;

    // Queries that overlapped an in-flight cold submit.
    std::vector<std::pair<std::int64_t, std::int64_t>> cold;
    for (const Op& op : log.ops) {
      if (op.kind == Op::kCold) cold.emplace_back(op.start_ns, op.end_ns);
    }
    std::vector<double> during_cold;
    for (const Op& op : reader.ops) {
      if (op.kind != Op::kQuery) continue;
      const auto next = std::upper_bound(cold.begin(), cold.end(),
                                         std::make_pair(op.end_ns, std::int64_t{0}));
      if (next != cold.begin() && std::prev(next)->second > op.start_ns) {
        during_cold.push_back(op.us());
      }
    }
    layers["svc.query_us_during_cold"] = median(during_cold);

    // Lease loop: cold-submit wall against the points' own compute time.
    double submit_ms = 0.0;
    double point_ms_sum = 0.0;
    std::vector<double> point_ms;
    for (const ColdSubmit& submit : log.cold) {
      const std::vector<double> wall = read_timing_ms(store_path(submit.hash) + ".timing");
      submit_ms += submit.submit_ms;
      for (const double ms : wall) point_ms_sum += ms;
      point_ms.insert(point_ms.end(), wall.begin(), wall.end());
    }
    layers["svc.lease_overhead_ratio"] = point_ms_sum > 0 ? submit_ms / point_ms_sum : 0.0;
    layers["exp.point_ms"] = median(point_ms);
    layers["svc.export_rows_per_s"] =
        log.export_s > 0 ? static_cast<double>(log.export_rows) / log.export_s : 0.0;

    svc::Client client;
    std::string error;
    exp::JsonValue reply;
    if (!outcome.check(client.connect(server_->socket_path(), error), "service_mix: connect failed")) {
      return;
    }
    std::vector<double> ping_us;
    for (int i = 0; i < 2000; ++i) {
      const ScopedSpan span{"svc.ping", static_cast<std::uint64_t>(i + 1)};
      const Clock::time_point start = Clock::now();
      const bool ok = client.call(R"({"op":"ping"})", reply, error) && reply_ok(reply);
      ping_us.push_back(seconds_since(start) * 1e6);
      outcome.check(ok, "service_mix: ping failed");
    }
    layers["svc.ping_us"] = median(ping_us);

    // Cache dedupe over a fixed mix — 19 resubmits of the hit spec and one
    // never-seen spec — read from the status counters, so the ratio is a
    // count that repeats exactly at a given seed.
    double hits = 0.0;
    double computed = 0.0;
    bool counted = client.call(R"({"op":"status"})", reply, error) && reply_ok(reply);
    hits -= number_of(reply, "cache_hits");
    computed -= number_of(reply, "computed");
    const std::string hit = submit_request(hit_text_);
    for (int i = 0; counted && i < 19; ++i) counted = client.call(hit, reply, error) && reply_ok(reply);
    sim::RandomStream fresh{config_.seed, 9};
    const std::string probe_text =
        "name = service_probe\n" + small_point_lines(kColdNetworks) + seed_sweep(fresh, kColdPoints);
    counted = counted && client.call(submit_request(probe_text), reply, error) && reply_ok(reply);
    counted = counted && client.call(R"({"op":"status"})", reply, error) && reply_ok(reply);
    hits += number_of(reply, "cache_hits");
    computed += number_of(reply, "computed");
    if (outcome.check(counted && hits + computed > 0, "service_mix: cache probe failed")) {
      layers["svc.cache_hit_ratio"] = hits / (hits + computed);
      layers["svc.retried"] = number_of(reply, "retried");
    }

    // The warm store through the index, in process.
    std::vector<double> open_ms;
    exp::StoreIndex index;
    for (int r = 0; r < 11; ++r) {
      index.close();
      const ScopedSpan span{"exp.index_open"};
      const Clock::time_point start = Clock::now();
      outcome.check(index.open(store_path(warm_hash_), warm_hash_, error),
                    "service_mix: index open failed");
      open_ms.push_back(seconds_since(start) * 1e3);
    }
    layers["exp.index_open_ms"] = median(open_ms);
    sim::RandomStream pick{config_.seed, 6};
    const int lookups = 4000;
    const Clock::time_point lookup_start = Clock::now();
    for (int i = 0; i < lookups; ++i) {
      const ScopedSpan span{"exp.index_lookup"};
      const auto p = static_cast<int>(pick.uniform_int(0, kWarmPoints - 1));
      const exp::StoreIndex::Entry* entry = index.find(warm_hash_, p);
      exp::ResultRecord record;
      outcome.check(entry != nullptr && index.read_record(*entry, record, error) && record.point == p,
                    "service_mix: index lookup failed");
    }
    layers["exp.index_lookup_us"] = seconds_since(lookup_start) * 1e6 / lookups;
    layers["exp.store_bytes_per_point"] =
        static_cast<double>(std::filesystem::file_size(store_path(warm_hash_))) / kWarmPoints;

    const std::string& text = log.cold.front().text;
    const int repeats = 500;
    const Clock::time_point spec_start = Clock::now();
    for (int r = 0; r < repeats; ++r) {
      const ScopedSpan span{"exp.spec"};
      outcome.check(!hash_of(text).empty(), "service_mix: spec probe failed");
    }
    layers["exp.spec_us"] = seconds_since(spec_start) * 1e6 / repeats;

    // The trial stack, on the first cold campaign's first point.
    exp::CampaignSpec spec;
    exp::SpecError spec_error;
    if (outcome.check(exp::parse_campaign(text, spec, spec_error), "service_mix: spec rejected")) {
      probe_trial_stack(exp::expand_grid(spec).front().params, layers, outcome);
    }
  }

  void verify(Outcome& outcome) override {
    if (server_ == nullptr) return;
    // Every cold store the server wrote must equal the engine's records.
    for (const auto& pass_logs : logs_) {
      for (const ColdSubmit& submit : pass_logs[1].cold) {
        exp::CampaignSpec spec;
        exp::SpecError spec_error;
        std::string expected;
        std::string error;
        const bool ran = exp::parse_campaign(submit.text, spec, spec_error) &&
                         exp::run_point_range(
                             spec, 0, kColdPoints, exp::RangeOptions{.jobs = 1},
                             [&](const exp::SweepPoint&, const std::string& record, double) {
                               expected += record + "\n";
                               return true;
                             },
                             error);
        outcome.check(ran && expected == read_file(store_path(submit.hash)),
                      "service_mix: server store " + submit.hash + " differs from the engine");
      }
    }
    svc::Client client;
    std::string error;
    exp::JsonValue reply;
    const bool status = client.connect(server_->socket_path(), error) &&
                        client.call(R"({"op":"status"})", reply, error) && reply_ok(reply);
    outcome.check(status && number_of(reply, "retried") == 0.0,
                  "service_mix: the server re-leased points (retried != 0)");
  }

  [[nodiscard]] double peak_rss_mb() const override {
    double total = Workload::peak_rss_mb();
    if (server_ != nullptr && server_->pid() > 0) {
      total += perfbench::peak_rss_mb(server_->pid());
      for (const int child : child_pids(server_->pid())) total += perfbench::peak_rss_mb(child);
    }
    return total;
  }

  void teardown() override {
    if (server_ != nullptr) server_->stop();
    server_.reset();
  }

 private:
  [[nodiscard]] std::string store_path(const std::string& hash) const {
    return dir_ + "/data/" + hash + ".jsonl";
  }

  /// Time one round trip; the request id ties the span to the log entry.
  bool timed_call(svc::Client& client, const std::string& request, Op::Kind kind,
                  std::uint64_t id, exp::JsonValue& reply, ConnectionLog& log) {
    std::string error;
    Op op;
    op.kind = kind;
    bool ok = false;
    {
      const ScopedSpan span{kind == Op::kCold ? "svc.submit_cold" : "svc.request", id};
      op.start_ns = tracer().now_ns();
      ok = client.call(request, reply, error) && reply_ok(reply);
      op.end_ns = tracer().now_ns();
    }
    log.ops.push_back(op);
    return ok;
  }

  void read_loop(svc::Client& client, int pass, Clock::time_point deadline, ConnectionLog& log,
                 Outcome& outcome) {
    sim::RandomStream mix{config_.seed + static_cast<std::uint64_t>(pass), 5};
    const std::string hit = submit_request(hit_text_);
    const std::string status = hash_request("status", hit_hash_);
    exp::JsonValue reply;
    for (std::uint64_t n = 1; Clock::now() < deadline; ++n) {
      const std::uint64_t id = (std::uint64_t{1} << 32) | n;
      const double draw = mix.uniform();
      if (draw < kQueryShare) {
        const auto p = static_cast<int>(mix.uniform_int(0, kWarmPoints - 1));
        std::string request = hash_request("query", warm_hash_);
        request.insert(request.size() - 1, ",\"point\":" + std::to_string(p));
        const bool ok = timed_call(client, request, Op::kQuery, id, reply, log);
        const exp::JsonValue* record = reply.find("record");
        outcome.check(ok && record != nullptr &&
                          record->string == warm_lines_[static_cast<std::size_t>(p)],
                      "service_mix: query of point " + std::to_string(p) +
                          " does not match the store on disk");
      } else if (draw < kQueryShare + kHitSubmitShare) {
        const bool ok = timed_call(client, hit, Op::kHit, id, reply, log);
        outcome.check(ok && number_of(reply, "done") == kColdPoints,
                      "service_mix: cache-hit submit failed");
      } else {
        const bool ok = timed_call(client, status, Op::kStatus, id, reply, log);
        outcome.check(ok, "service_mix: status failed");
      }
      {
        const std::lock_guard<std::mutex> lock{reads_mutex_};
        ++reads_done_;
      }
      if (n % kReadsPerWrite == 0) reads_cv_.notify_one();
    }
  }

  void write_loop(svc::Client& client, int pass, Clock::time_point deadline, ConnectionLog& log,
                  Outcome& outcome) {
    sim::RandomStream seeds{config_.seed + static_cast<std::uint64_t>(pass), 7};
    exp::JsonValue reply;
    for (std::uint64_t n = 1; Clock::now() < deadline; ++n) {
      // Think time counted in reads: cycle n starts once the reader has
      // completed (n - 1) * kReadsPerWrite requests, so the mix of request
      // kinds is the same on a fast host and a slow one.
      // A blocking wait, not a poll: a polling writer would steal the CPU
      // the reader and the server are measured on.
      {
        std::unique_lock<std::mutex> lock{reads_mutex_};
        reads_cv_.wait_until(lock, deadline,
                             [&] { return reads_done_ >= (n - 1) * kReadsPerWrite; });
      }
      if (Clock::now() >= deadline) break;
      const std::uint64_t id = (std::uint64_t{2} << 32) | n;
      ColdSubmit submit;
      submit.text = "name = service_cold_" + std::to_string(pass) + "_" + std::to_string(n) +
                    "\n" + small_point_lines(kColdNetworks) + seed_sweep(seeds, kColdPoints);
      submit.hash = hash_of(submit.text);
      const bool ok = timed_call(client, submit_request(submit.text), Op::kCold, id, reply, log);
      submit.submit_ms = log.ops.back().us() / 1e3;
      outcome.check(ok && number_of(reply, "done") == kColdPoints,
                    "service_mix: cold submit failed");
      log.cold.push_back(submit);

      // Export the fresh campaign: CSV rows until the terminator.
      std::string error;
      Op op;
      op.kind = Op::kExport;
      std::uint64_t rows = 0;
      bool done = false;
      bool ok_export = false;
      {
        const ScopedSpan span{"svc.export", id};
        op.start_ns = tracer().now_ns();
        ok_export = client.send_line(hash_request("export", submit.hash), error);
        std::string line;
        while (ok_export && !done && client.recv_line(line, error)) {
          ok_export = svc::parse_reply(line, reply, error);
          if (reply.find("csv") != nullptr) {
            ++rows;
          } else {
            done = reply_ok(reply);
            ok_export = ok_export && done;
          }
        }
        op.end_ns = tracer().now_ns();
      }
      log.ops.push_back(op);
      const std::uint64_t data_rows = rows > 0 ? rows - 1 : 0;  // minus the header
      outcome.check(ok_export && done &&
                        number_of(reply, "rows") == static_cast<double>(data_rows) &&
                        data_rows == kColdPoints * kColdNetworks,
                    "service_mix: export of a cold campaign failed");
      log.export_rows += data_rows;
      log.export_s += op.us() / 1e6;
    }
  }

  RunConfig config_;
  std::string warm_text_;
  std::string hit_text_;
  std::string warm_hash_;
  std::string hit_hash_;
  std::string dir_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::string> warm_lines_;
  ConnectionLog logs_[2][2];  // [pass][reader, writer]
  std::mutex reads_mutex_;
  std::condition_variable reads_cv_;  // the reader wakes the writer every kReadsPerWrite reads
  std::uint64_t reads_done_ = 0;      // guarded by reads_mutex_; reader requests this pass
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const RunConfig& config) {
  return std::make_unique<ServiceMix>(config);
}

}  // namespace nomc::perfbench
