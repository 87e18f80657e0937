#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "exp/result_store.hpp"

namespace nomc::perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open_spans;

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double windowed_median(const std::vector<double>& values, std::size_t window) {
  if (values.empty() || window == 0) return 0.0;
  const std::size_t windows = std::max<std::size_t>(1, values.size() / window);
  double sum = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto from = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto to = w + 1 == windows ? values.end() : from + static_cast<std::ptrdiff_t>(window);
    sum += median(std::vector<double>(from, to));
  }
  return sum / static_cast<double>(windows);
}

Tail tail_of(std::vector<double> values, std::size_t beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const std::size_t rank = n - beyond;  // 1-based; `beyond` samples lie above it
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

WindowedTail windowed_tail(const std::vector<double>& values, std::size_t window,
                           std::size_t beyond) {
  WindowedTail result;
  result.samples = values.size();
  if (values.empty() || window == 0) return result;
  const std::size_t windows = std::max<std::size_t>(1, values.size() / window);
  std::vector<double> tails;
  std::vector<double> percentiles;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto from = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto to = w + 1 == windows ? values.end() : from + static_cast<std::ptrdiff_t>(window);
    const Tail tail = tail_of(std::vector<double>(from, to), beyond);
    tails.push_back(tail.value);
    percentiles.push_back(tail.percentile);
  }
  result.value = median(tails);
  result.percentile = median(percentiles);
  result.windows = windows;
  return result;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<std::size_t>(span.parent) >= spans.size()) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t from = std::max(span.start_ns, parent.start_ns);
    const std::int64_t to = std::min(span.end_ns, parent.end_ns);
    if (to > from) covered[static_cast<std::size_t>(span.parent)].emplace_back(from, to);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t run_from = 0;
    std::int64_t run_to = 0;
    bool in_run = false;
    for (const auto& [from, to] : intervals) {
      if (in_run && from <= run_to) {
        run_to = std::max(run_to, to);
        continue;
      }
      if (in_run) union_ns += run_to - run_from;
      run_from = from;
      run_to = to;
      in_run = true;
    }
    if (in_run) union_ns += run_to - run_from;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

int Tracer::open(const char* name, std::uint64_t request, int parent) {
  const std::int64_t start = now_ns();
  if (parent < 0 && !t_open_spans.empty()) parent = t_open_spans.back();
  int index = 0;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start, start, parent, request});
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

bool Tracer::write_jsonl(const std::string& path, std::string& error) const {
  const std::vector<Span> spans = snapshot();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    error = "cannot write " + path;
    return false;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::string line = "{\"id\":" + std::to_string(i) + ",\"name\":";
    exp::json_append_string(line, span.name);
    line += ",\"start_ns\":" + std::to_string(span.start_ns) +
            ",\"end_ns\":" + std::to_string(span.end_ns) +
            ",\"self_ns\":" + std::to_string(self[i]) +
            ",\"parent\":" + std::to_string(span.parent) +
            ",\"request\":" + std::to_string(span.request) + "}\n";
    out << line;
  }
  if (!out) {
    error = "short write to " + path;
    return false;
  }
  return true;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

bool Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  return ok;
}

std::string number_text(double value) {
  std::string out;
  exp::json_append_double(out, value);
  return out;
}

std::string result_line(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += outcome.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(outcome.attempted);
  out += ",\"failed\":" + std::to_string(outcome.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    exp::json_append_string(out, metrics[i].name);
    out += ":{\"value\":" + number_text(metrics[i].value) + ",\"unit\":";
    exp::json_append_string(out, metrics[i].unit);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string stamp_line(const Stamp& stamp) {
  std::string out = "{\"stamp\":{\"workload\":";
  exp::json_append_string(out, stamp.workload);
  out += ",\"seed\":" + std::to_string(stamp.seed);
  out += ",\"seconds\":" + std::to_string(stamp.seconds);
  out += ",\"trace\":";
  out += stamp.trace ? "true" : "false";
  out += ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":";
  exp::json_append_string(out, PERFBENCH_COMPILER_TEXT);
  out += ",\"build_type\":";
  exp::json_append_string(out, PERFBENCH_BUILD_TYPE_TEXT);
  out += ",\"commit\":";
  exp::json_append_string(out, stamp.commit);
  out += "}}";
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<double> read_timing_ms(const std::string& timing_path) {
  std::vector<double> wall_ms;
  std::istringstream lines{read_file(timing_path)};
  std::string line;
  while (std::getline(lines, line)) {
    exp::JsonValue value;
    std::string error;
    if (!exp::parse_json(line, value, error)) continue;
    const exp::JsonValue* wall = value.find("wall_ms");
    if (wall != nullptr && wall->type == exp::JsonValue::Type::kNumber) {
      wall_ms.push_back(wall->number);
    }
  }
  return wall_ms;
}

double peak_rss_mb(int pid) {
  std::ifstream status{"/proc/" + std::to_string(pid) + "/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields{line.substr(6)};
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

std::vector<int> child_pids(int pid) {
  std::vector<int> children;
  const std::filesystem::path tasks = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator{tasks, ec}) {
    std::ifstream file{task.path() / "children"};
    int child = 0;
    while (file >> child) children.push_back(child);
  }
  std::sort(children.begin(), children.end());
  return children;
}

namespace {

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  return ::sched_setaffinity(0, sizeof mask, &mask) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  if (::sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) (void)pin_to(cpus_);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  (void)pin_to({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

}  // namespace nomc::perfbench
