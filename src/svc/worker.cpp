#include "svc/worker.hpp"

#include <string>

#include "exp/campaign.hpp"
#include "exp/spec.hpp"
#include "svc/protocol.hpp"

namespace nomc::svc {
namespace {

/// Read one '\n'-terminated line from `in` (newline stripped). Returns false
/// on EOF with nothing buffered; a final unterminated line is returned as-is.
bool read_line(std::FILE* in, std::string& line) {
  line.clear();
  int ch = 0;
  while ((ch = std::fgetc(in)) != EOF) {
    if (ch == '\n') return true;
    line.push_back(static_cast<char>(ch));
  }
  return !line.empty();
}

/// Write one reply line and flush, so the supervisor sees each completed
/// point the moment it lands — a SIGKILL then loses at most the point in
/// flight, never a buffered-but-computed one.
bool write_line(std::FILE* out, const std::string& line) {
  if (std::fwrite(line.data(), 1, line.size(), out) != line.size()) return false;
  if (std::fputc('\n', out) == EOF) return false;
  return std::fflush(out) == 0;
}

}  // namespace

int run_worker(std::FILE* in, std::FILE* out) {
  std::string line;
  while (read_line(in, line)) {
    LeaseRequest lease;
    std::string error;
    if (!parse_lease(line, lease, error)) {
      write_line(out, error_reply(error));
      return 1;
    }
    exp::CampaignSpec spec;
    exp::SpecError spec_error;
    if (!exp::parse_campaign(lease.spec, spec, spec_error)) {
      write_line(out, error_reply("bad spec in lease: " + spec_error.message));
      return 1;
    }
    exp::RangeOptions options;
    options.jobs = lease.jobs;
    bool io_ok = true;
    const bool ran = exp::run_point_range(
        spec, lease.first, lease.count, options,
        [&](const exp::SweepPoint& point, const std::string& record, double wall_ms) {
          io_ok = write_line(out, worker_record_line(point.index, wall_ms, record));
          return io_ok;
        },
        error);
    if (!io_ok) return 1;  // supervisor closed the pipe; nothing left to say
    if (!ran) {
      write_line(out, error_reply(error));
      return 1;
    }
    if (!write_line(out, worker_done_line(lease.first, lease.count))) return 1;
  }
  return 0;
}

}  // namespace nomc::svc
