// End-to-end campaign-service test through the REAL binaries: fork/exec
// nomc-serve on a temp socket, drive it with the nomc-campaign client CLI,
// and check the acceptance contract —
//   (a) resubmitting an identical spec simulates zero points (the status
//       counters show pure cache hits),
//   (b) the server-written JSONL store is byte-identical to a local
//       `nomc-campaign run` store of the same spec,
//   (c) a query served through the .idx sidecar returns the same record as
//       a linear scan of the store.
//
// nomc-lint: allow-file(svc-raw-fork) — spawning the real binaries IS the
// test; svc::WorkerPool is part of the system under test, not usable here.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/client.hpp"

namespace nomc::svc {
namespace {

constexpr const char* kSocket = "/tmp/nomc_e2e.sock";

std::string work_dir() { return ::testing::TempDir() + "nomc_svc_e2e"; }

/// fork/exec one of the real tools, stdout/stderr silenced; returns the
/// child's exit code (-1 on spawn failure / abnormal exit).
int run_tool(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
  std::fclose(file);
  return out;
}

/// Ask the server for its lifetime counters.
bool fetch_counters(Client& client, std::uint64_t& computed, std::uint64_t& cache_hits,
                    std::string& error) {
  exp::JsonValue reply;
  if (!client.call(R"({"op":"status"})", reply, error)) return false;
  const exp::JsonValue* ok = reply.find("ok");
  if (ok == nullptr || !ok->boolean) {
    error = "status returned not-ok";
    return false;
  }
  computed = static_cast<std::uint64_t>(reply.find("computed")->number);
  cache_hits = static_cast<std::uint64_t>(reply.find("cache_hits")->number);
  return true;
}

TEST(ServiceE2E, SubmitCacheQueryExportShutdown) {
  const std::string data_dir = work_dir();
  const std::string spec_path = NOMC_E2E_SPEC;
  // A fresh data dir every run: a stale cache from a previous run would turn
  // the "first submission computes everything" phase into cache hits.
  std::filesystem::remove_all(data_dir);

  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  ASSERT_TRUE(exp::load_campaign(spec_path, spec, spec_error)) << spec_error.str();
  const std::string hash = exp::spec_hash(spec);
  const int points = static_cast<int>(exp::expand_grid(spec).size());
  ASSERT_GT(points, 0);

  // Start the real daemon.
  const pid_t server_pid = ::fork();
  ASSERT_GE(server_pid, 0);
  if (server_pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    ::execl(NOMC_SERVE_BIN, NOMC_SERVE_BIN, "--socket", kSocket, "--data-dir",
            data_dir.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }

  // Wait for the socket to accept (the daemon needs a moment to bind).
  Client probe;
  std::string error;
  bool up = false;
  for (int attempt = 0; attempt < 200 && !up; ++attempt) {
    up = probe.connect(kSocket, error);
    if (!up) ::usleep(50 * 1000);
  }
  ASSERT_TRUE(up) << error;

  // First submission computes every point...
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "submit", spec_path, "--server", kSocket}), 0);
  std::uint64_t computed = 0;
  std::uint64_t cache_hits = 0;
  ASSERT_TRUE(fetch_counters(probe, computed, cache_hits, error)) << error;
  EXPECT_EQ(computed, static_cast<std::uint64_t>(points));
  EXPECT_EQ(cache_hits, 0u);

  // ...(a) the identical resubmission simulates zero points: computed does
  // not move, every point lands as a cache hit in the status reply.
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "submit", spec_path, "--server", kSocket}), 0);
  ASSERT_TRUE(fetch_counters(probe, computed, cache_hits, error)) << error;
  EXPECT_EQ(computed, static_cast<std::uint64_t>(points));
  EXPECT_EQ(cache_hits, static_cast<std::uint64_t>(points));

  // (b) The server's store is byte-identical to a local run of the spec.
  const std::string local_store = work_dir() + "_local.jsonl";
  std::remove(local_store.c_str());
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "run", spec_path, "--out", local_store,
                      "--quiet"}),
            0);
  const std::string server_store = data_dir + "/" + hash + ".jsonl";
  const std::string server_bytes = read_file(server_store);
  ASSERT_FALSE(server_bytes.empty());
  EXPECT_EQ(server_bytes, read_file(local_store));

  // (c) A query through the .idx sidecar == the linear-scan record.
  exp::StoreScan scan;
  ASSERT_TRUE(exp::scan_store(server_store, hash, scan, error)) << error;
  exp::StoreIndex index;
  ASSERT_TRUE(index.open(server_store, hash, error)) << error;
  ASSERT_TRUE(std::fopen(exp::StoreIndex::index_path(server_store).c_str(), "rb") !=
              nullptr);  // the sidecar actually exists on disk
  for (const exp::ResultRecord& record : scan.records) {
    const exp::StoreIndex::Entry* entry = index.find(hash, record.point);
    ASSERT_NE(entry, nullptr) << record.point;
    std::string via_index;
    ASSERT_TRUE(index.read_line(*entry, via_index, error)) << error;
    exp::JsonValue reply;
    const std::string query = "{\"op\":\"query\",\"spec_hash\":\"" + hash +
                              "\",\"point\":" + std::to_string(record.point) + "}";
    ASSERT_TRUE(probe.call(query, reply, error)) << error;
    ASSERT_TRUE(reply.find("ok")->boolean);
    EXPECT_EQ(reply.find("record")->string, via_index);  // server == index == scan
  }

  // The CLI query path agrees too (spot check one point).
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "query", hash, "--server", kSocket, "--point",
                      "0"}),
            0);
  // And the streamed export completes against the running server.
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "export", hash, "--server", kSocket, "--out",
                      work_dir() + "_served.csv"}),
            0);
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "export-csv", local_store, "--out",
                      work_dir() + "_local.csv"}),
            0);
  EXPECT_EQ(read_file(work_dir() + "_served.csv"), read_file(work_dir() + "_local.csv"));
  EXPECT_FALSE(read_file(work_dir() + "_served.csv").empty());

  // Clean shutdown through the CLI; the daemon must exit 0 on its own.
  probe.close();
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "shutdown", kSocket}), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

/// fork/exec a tool without waiting — the caller reaps it.
pid_t spawn_tool(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return pid;
}

/// The server's worker children that are computing right now, found by
/// walking /proc for processes whose parent is the daemon (the workers are
/// `nomc-campaign worker`) and whose state is R. A worker waiting for its
/// next lease sleeps on its stdin (state S); killing one of those re-leases
/// nothing.
std::vector<pid_t> computing_workers(pid_t server_pid) {
  std::vector<pid_t> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string stat = read_file("/proc/" + name + "/stat");
    // stat: "pid (comm) state ppid ..."; comm may hold spaces, so parse past
    // the LAST ')' (the kernel never escapes it).
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    const std::size_t comm_open = stat.find('(');
    const std::string comm = stat.substr(comm_open + 1, close - comm_open - 1);
    if (comm.find("nomc-campaign") == std::string::npos) continue;
    char state = 0;
    pid_t ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %d", &state, &ppid) != 2) continue;
    if (ppid == server_pid && state == 'R') out.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return out;
}

TEST(ServiceE2E, Workers4SurviveSigkillMidCampaign) {
  // The acceptance scenario: a --workers 4 daemon, one worker SIGKILLed while
  // the campaign runs, and the final store still byte-identical to a serial
  // local run with the killed worker's points visibly re-leased.
  const std::string data_dir = ::testing::TempDir() + "nomc_svc_e2e_w4";
  const char* kSocketW4 = "/tmp/nomc_e2e_w4.sock";
  std::filesystem::remove_all(data_dir);
  std::filesystem::create_directories(data_dir);

  // Every point is long enough (about 0.15 s in a Release build) to still
  // be running when the kill lands: a one-link, 3-simulated-second point
  // finishes in a few milliseconds, before a /proc scan can find the victim.
  const std::string spec_text =
      "name = e2e_w4\n"
      "channels = 4\n"
      "links = 2\n"
      "power = 0\n"
      "warmup = 1\n"
      "measure = 12\n"
      "trials = 1\n"
      "sweep seed = 1 2 3 4 5 6 7 8\n";
  const std::string spec_path = data_dir + "/e2e_w4.campaign";
  {
    std::FILE* file = std::fopen(spec_path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(spec_text.data(), 1, spec_text.size(), file);
    std::fclose(file);
  }
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  ASSERT_TRUE(exp::parse_campaign(spec_text, spec, spec_error)) << spec_error.str();
  const std::string hash = exp::spec_hash(spec);

  const pid_t server_pid = ::fork();
  ASSERT_GE(server_pid, 0);
  if (server_pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    ::execl(NOMC_SERVE_BIN, NOMC_SERVE_BIN, "--socket", kSocketW4, "--data-dir",
            data_dir.c_str(), "--workers", "4", "--lease-points", "1",
            static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  Client probe;
  std::string error;
  bool up = false;
  for (int attempt = 0; attempt < 200 && !up; ++attempt) {
    up = probe.connect(kSocketW4, error);
    if (!up) ::usleep(50 * 1000);
  }
  ASSERT_TRUE(up) << error;

  // Submit from the CLI, then SIGKILL a worker while it computes a point:
  // a running worker holds a one-point lease it has not yet delivered.
  const pid_t submit_pid =
      spawn_tool({NOMC_CAMPAIGN_BIN, "submit", spec_path, "--server", kSocketW4});
  ASSERT_GT(submit_pid, 0);
  pid_t victim = -1;
  for (int i = 0; i < 2000 && victim < 0; ++i) {
    const std::vector<pid_t> workers = computing_workers(server_pid);
    if (!workers.empty()) {
      victim = workers.front();
    } else {
      ::usleep(2000);
    }
  }
  ASSERT_GT(victim, 0) << "no worker under the daemon was seen computing";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The CLI submit must still succeed: the supervisor re-leases the killed
  // worker's points and completes the grid.
  int status = 0;
  ASSERT_EQ(::waitpid(submit_pid, &status, 0), submit_pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The retry is visible in the status counters.
  exp::JsonValue reply;
  ASSERT_TRUE(probe.call(R"({"op":"status"})", reply, error)) << error;
  ASSERT_TRUE(reply.find("ok")->boolean);
  ASSERT_NE(reply.find("retried"), nullptr);
  EXPECT_GE(static_cast<int>(reply.find("retried")->number), 1);

  // Byte-identity with a serial local run of the same spec.
  const std::string local_store = data_dir + "_local.jsonl";
  std::remove(local_store.c_str());
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "run", spec_path, "--out", local_store,
                      "--quiet"}),
            0);
  const std::string server_bytes = read_file(data_dir + "/" + hash + ".jsonl");
  ASSERT_FALSE(server_bytes.empty());
  EXPECT_EQ(server_bytes, read_file(local_store));

  probe.close();
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "shutdown", kSocketW4}), 0);
  ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace nomc::svc
