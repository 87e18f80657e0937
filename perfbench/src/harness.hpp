// The benchmark's own measurement plumbing: order statistics, in-memory
// spans with self-time arithmetic, the run stamp, peak-RSS sampling, and the
// one-line JSON result. Everything here is a pure function or a plain
// container except Tracer, which is a process-wide span buffer.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nomc::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The median of a long sample taken window by window: the samples, in
/// arrival order, are cut into consecutive windows of `window` values (the
/// last absorbs the remainder) and the mean of the window medians is
/// returned. When the host alternates between a fast and a slow speed for
/// seconds at a time, the plain median jumps between the two modes as their
/// shares cross one half; this mean moves in proportion to the shares. A
/// sample shorter than two windows is a single window, i.e. median().
[[nodiscard]] double windowed_median(const std::vector<double>& values,
                                     std::size_t window = 1000);

/// The tail of a sample: the highest percentile that still has at least
/// `beyond` samples strictly above it. For n sorted samples that is the
/// value at rank n - beyond (1-based), reported as percentile
/// 100 * (n - beyond) / n. With n <= beyond no percentile qualifies: the
/// maximum is reported as percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values, std::size_t beyond = 10);

/// The tail of a long sample, robust to rare host stalls: the samples, in
/// arrival order, are cut into consecutive windows of `window` values (the
/// last window absorbs the remainder), tail_of() is taken in each, and the
/// median window tail is reported with the median window percentile.
/// `samples` counts all values and `windows` the windows. A sample shorter
/// than two windows is a single window, i.e. plain tail_of().
struct WindowedTail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t windows = 0;
};
[[nodiscard]] WindowedTail windowed_tail(const std::vector<double>& values,
                                         std::size_t window = 1000, std::size_t beyond = 10);

// ---- Spans ---------------------------------------------------------------

/// One timed call: name (a "layer.call" label), interval in nanoseconds
/// since the tracer's epoch, the enclosing span (-1 for a root) and the
/// request it served (0 when the call belongs to no request).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (concurrent
/// calls under one parent) or spill past the parent's end; only the union
/// of their intervals, clipped to the parent, is subtracted.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Process-wide span buffer. Spans stay in memory until write_jsonl() at the
/// end of the run. When disabled, opening a span costs one flag test.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; `parent` < 0 nests it under the calling thread's
  /// innermost open span. Returns its index.
  int open(const char* name, std::uint64_t request, int parent = -1);
  void close(int index);

  [[nodiscard]] std::vector<Span> snapshot() const;
  [[nodiscard]] std::int64_t now_ns() const;

  /// One JSON object per span plus its self time.
  bool write_jsonl(const std::string& path, std::string& error) const;

 private:
  bool enabled_ = false;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

[[nodiscard]] Tracer& tracer();

/// RAII span around one call; inert while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0, int parent = -1)
      : index_{tracer().enabled() ? tracer().open(name, request, parent) : -1} {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  int index_;
};

// ---- Results -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts every operation a workload attempted and every one that failed,
/// with the first failure's description.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  /// Record one checked operation; returns `ok`.
  bool check(bool ok, const std::string& what);
};

/// The last stdout line the benchmark prints:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
[[nodiscard]] std::string result_line(const Outcome& outcome, const std::vector<Metric>& metrics);

/// Where and how the run was made, printed before the result line.
struct Stamp {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string commit;
};
[[nodiscard]] std::string stamp_line(const Stamp& stamp);

/// A number in the store's round-trip format (all digits).
[[nodiscard]] std::string number_text(double value);

// ---- Files ---------------------------------------------------------------

/// Whole file contents; empty when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);
/// The wall_ms of every line of a campaign ".timing" sidecar, in file order.
[[nodiscard]] std::vector<double> read_timing_ms(const std::string& timing_path);

// ---- Process accounting -------------------------------------------------

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid);
/// Direct children of `pid` (from /proc/<pid>/task/*/children).
[[nodiscard]] std::vector<int> child_pids(int pid);

/// Moves the calling thread to the next CPU of its affinity mask on each
/// step() and restores the mask on destruction. The scheduler leaves a lone
/// busy thread on one CPU for a whole run, and on a VM whose vCPUs run tens
/// of percent apart for minutes at a time, that one CPU's speed would decide
/// the run's figures; a timed loop that steps between ops spends equal time
/// on every CPU instead. Does nothing when the mask cannot be read.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  std::vector<int> cpus_;  ///< the original mask
  std::size_t next_ = 0;
};

}  // namespace nomc::perfbench
