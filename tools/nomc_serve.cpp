// nomc-serve — the campaign service daemon.
//
// Listens on a Unix-domain socket for line-delimited JSON requests from
// nomc-campaign clients (and anything else speaking the protocol in
// docs/service.md): campaign submissions, status/cache counters, point
// queries, and streamed CSV exports. Submitted specs are canonicalized and
// hashed; points already present in the per-spec JSONL store are served from
// the result cache, only the missing ones are simulated — so the stores it
// writes are byte-identical to local `nomc-campaign run` ones.
//
// With --workers N the missing points are sharded across N supervised
// worker processes (`nomc-campaign worker` children leased contiguous point
// ranges over pipes); the server keeps answering status/query/export while
// the campaign runs, and crashed or stalled workers have their points
// re-leased. Without it, submits simulate synchronously on the server
// thread, as before.
//
//   nomc-serve --socket /tmp/nomc.sock --data-dir campaigns --workers 4
//   nomc-campaign submit fig01.campaign --server /tmp/nomc.sock
#include <cstdio>
#include <string>

#include <unistd.h>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "svc/server.hpp"

namespace {

/// Default worker binary: the nomc-campaign sitting next to this executable
/// (they install side by side), falling back to PATH lookup semantics via
/// the bare name when /proc/self/exe is unreadable.
std::string sibling_campaign_bin() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "nomc-campaign";
  std::string path(buffer, static_cast<std::size_t>(n));
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "nomc-campaign";
  return path.substr(0, slash + 1) + "nomc-campaign";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nomc;

  cli::ArgParser args;
  args.add_string("socket", "nomc.sock", "Unix-domain socket path to listen on");
  args.add_string("data-dir", "nomc-campaigns",
                  "directory for campaign stores and sidecars (created if missing)");
  args.add_int("jobs", 1, "trial threads per point (0 = all hardware threads)");
  args.add_int("point-jobs", 1, "sweep points computed concurrently (0 = all)");
  args.add_int("workers", 0,
               "worker processes a campaign is sharded across (0 = simulate on "
               "the server thread)");
  args.add_string("worker-bin", "",
                  "worker executable (default: the nomc-campaign next to nomc-serve)");
  args.add_int("lease-points", 2, "max sweep points per worker lease");
  args.add_int("lease-timeout-ms", 30000, "stalled-lease deadline before re-leasing");
  args.add_int("worker-retries", 2,
               "re-leases one point survives before the campaign is marked failed");
  args.add_flag("quiet", "suppress per-point progress lines");
  if (const auto exit_code = cli::parse_standard(args, argc, argv, "nomc-serve")) {
    return *exit_code;
  }

  svc::ServerConfig config;
  config.socket_path = args.get_string("socket");
  config.data_dir = args.get_string("data-dir");
  config.jobs = args.get_int("jobs");
  config.point_jobs = args.get_int("point-jobs");
  config.quiet = args.get_flag("quiet");
  config.workers = args.get_int("workers");
  config.lease_points = args.get_int("lease-points");
  config.lease_timeout_ms = args.get_int("lease-timeout-ms");
  config.worker_retries = args.get_int("worker-retries");
  if (config.workers > 0) {
    std::string worker_bin = args.get_string("worker-bin");
    if (worker_bin.empty()) worker_bin = sibling_campaign_bin();
    config.worker_argv = {worker_bin, "worker"};
  }

  svc::Server server;
  std::string error;
  if (!server.open(config, error)) {
    std::fprintf(stderr, "nomc-serve: %s\n", error.c_str());
    return 1;
  }
  if (!config.quiet) {
    std::printf("nomc-serve: listening on %s, data in %s/", config.socket_path.c_str(),
                config.data_dir.c_str());
    if (config.workers > 0) std::printf(", %d worker(s)", config.workers);
    std::printf("\n");
    std::fflush(stdout);
  }
  if (!server.run(error)) {
    std::fprintf(stderr, "nomc-serve: %s\n", error.c_str());
    return 1;
  }
  if (!config.quiet) {
    std::printf("nomc-serve: shutdown (%llu submission(s), %llu point(s) computed, "
                "%llu cache hit(s), %llu point(s) retried)\n",
                static_cast<unsigned long long>(server.submissions()),
                static_cast<unsigned long long>(server.computed()),
                static_cast<unsigned long long>(server.cache_hits()),
                static_cast<unsigned long long>(server.retried()));
  }
  return 0;
}
