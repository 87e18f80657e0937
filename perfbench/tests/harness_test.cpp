// Tests of the benchmark harness's pure parts: tail-percentile selection
// under the "at least ten samples beyond" rule, and span self-time
// arithmetic on nested and overlapping children; and of CpuRotation, which
// must visit every CPU it may use and hand the thread's mask back.
#include <gtest/gtest.h>
#include <sched.h>

#include <set>
#include <vector>

#include "harness.hpp"

namespace nomc::perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(Tail, KeepsTenSamplesBeyond) {
  const Tail tail = tail_of(one_to(1000));
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);  // 991..1000 lie beyond it
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
}

TEST(Tail, SmallSampleFallsBackToLowerPercentile) {
  const Tail tail = tail_of(one_to(40));
  EXPECT_DOUBLE_EQ(tail.value, 30.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 75.0);
  EXPECT_EQ(tail.samples, 40u);
}

TEST(Tail, ElevenSamplesIsTheSmallestRealTail) {
  const Tail eleven = tail_of(one_to(11));
  EXPECT_DOUBLE_EQ(eleven.value, 1.0);
  EXPECT_DOUBLE_EQ(eleven.percentile, 100.0 / 11.0);
  const Tail ten = tail_of(one_to(10));
  EXPECT_DOUBLE_EQ(ten.value, 10.0);  // no percentile qualifies: the maximum
  EXPECT_DOUBLE_EQ(ten.percentile, 100.0);
  EXPECT_EQ(ten.samples, 10u);
  EXPECT_EQ(tail_of({}).samples, 0u);
}

TEST(Tail, CustomBeyondCount) {
  const Tail tail = tail_of(one_to(100), 1);
  EXPECT_DOUBLE_EQ(tail.value, 99.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
}

TEST(WindowedTail, ShortSampleIsOneWindow) {
  const WindowedTail tail = windowed_tail(one_to(40), 1000);
  EXPECT_EQ(tail.windows, 1u);
  EXPECT_EQ(tail.samples, 40u);
  EXPECT_DOUBLE_EQ(tail.value, 30.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 75.0);
}

TEST(WindowedTail, MedianOfWindowTailsIgnoresOneStall) {
  // Three windows of 100 samples 1..100; a stall puts huge values into the
  // second window only. That window's tail rises; the median does not.
  std::vector<double> values;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) values.push_back(w == 1 && i > 80 ? 1e6 : i);
  }
  const WindowedTail tail = windowed_tail(values, 100);
  EXPECT_EQ(tail.windows, 3u);
  EXPECT_EQ(tail.samples, 300u);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);  // 10 samples beyond it in each window
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_DOUBLE_EQ(tail_of(values).value, 1e6);  // the whole-sample tail does move
}

TEST(WindowedTail, LastWindowAbsorbsTheRemainder) {
  // 250 values in windows of 100: two windows, the second holds 150.
  std::vector<double> values(250, 1.0);
  for (std::size_t i = 100; i < 250; ++i) values[i] = 2.0;
  const WindowedTail tail = windowed_tail(values, 100);
  EXPECT_EQ(tail.windows, 2u);
  EXPECT_DOUBLE_EQ(tail.value, 1.5);  // median of the tails 1 and 2
}

TEST(WindowedMedian, MovesWithTheShareOfSlowWindows) {
  // Four windows of 100: one slow (all 10), three fast (all 1). The plain
  // median is 1 and would jump to 10 once slow windows pass one half; the
  // windowed median moves by a quarter of the gap.
  std::vector<double> values;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 100; ++i) values.push_back(w == 2 ? 10.0 : 1.0);
  }
  EXPECT_DOUBLE_EQ(median(values), 1.0);
  EXPECT_DOUBLE_EQ(windowed_median(values, 100), 3.25);
}

TEST(WindowedMedian, ShortSampleIsThePlainMedian) {
  EXPECT_DOUBLE_EQ(windowed_median(one_to(150), 100), median(one_to(150)));
  EXPECT_DOUBLE_EQ(windowed_median({}, 100), 0.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

Span span(std::int64_t start, std::int64_t end, int parent) {
  return Span{"s", start, end, parent, 0};
}

TEST(SelfTime, NestedChildren) {
  // root [0,100] > child [10,30] > grandchild [15,20]
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0), span(15, 20, 1)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 5);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two concurrent children [10,40] and [30,60] cover [10,60] = 50.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 40, 0), span(30, 60, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 50);
}

TEST(SelfTime, DisjointAndContainedChildren) {
  // [10,20] and [50,70] disjoint; [55,60] contained in the second.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 20, 0), span(50, 70, 0),
                                   span(55, 60, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 70);
}

TEST(SelfTime, ChildrenClippedToParent) {
  // A child that outlives its parent only covers the parent's part.
  const std::vector<Span> spans = {span(0, 100, -1), span(90, 130, 0), span(-5, 5, 0)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 85);
  EXPECT_EQ(self[1], 40);
}

TEST(SelfTime, FullyCoveredParentHasNoSelfTime) {
  const std::vector<Span> spans = {span(0, 10, -1), span(0, 10, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 0);
}

TEST(Tracer, NestsOnTheCallingThread) {
  Tracer local;
  local.set_enabled(true);
  const int outer = local.open("outer", 7);
  const int inner = local.open("inner", 7);
  local.close(inner);
  local.close(outer);
  const std::vector<Span> spans = local.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Result, LineHasExactlyTheContractKeys) {
  Outcome outcome;
  outcome.check(true, "a");
  outcome.check(false, "b");
  EXPECT_EQ(outcome.first_failure, "b");
  EXPECT_EQ(result_line(outcome, {{"x_ms", 1.5, "ms"}}),
            R"({"correct":false,"attempted":2,"failed":1,"metrics":{"x_ms":{"value":1.5,"unit":"ms"}}})");
}

std::set<int> allowed_cpus() {
  cpu_set_t mask;
  std::set<int> cpus;
  if (::sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.insert(cpu);
  }
  return cpus;
}

TEST(CpuRotation, VisitsEveryCpuAndRestoresTheMask) {
  const std::set<int> before = allowed_cpus();
  ASSERT_FALSE(before.empty());
  std::set<int> visited;
  {
    CpuRotation rotation;
    for (std::size_t i = 0; i < before.size(); ++i) {
      rotation.step();
      const std::set<int> now = allowed_cpus();
      if (before.size() > 1) {
        ASSERT_EQ(now.size(), 1u);
        visited.insert(*now.begin());
      }
    }
  }
  if (before.size() > 1) {
    EXPECT_EQ(visited, before);
  }
  EXPECT_EQ(allowed_cpus(), before);
}

}  // namespace
}  // namespace nomc::perfbench
