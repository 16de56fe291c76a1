// Tests of the benchmark's own rules: the percentile rule, span self
// time and the unattributed share of a unit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

Span span(std::string name, std::uint64_t id, std::uint64_t parent,
          double start, double end) {
  return Span{std::move(name), id, parent, 1, start, end};
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 50.0);
  EXPECT_EQ(tail_percentile(4), 50.0);    // no percentile qualifies
  EXPECT_EQ(tail_percentile(20), 50.0);   // median: rank 10, 10 beyond
  EXPECT_EQ(tail_percentile(39), 50.0);   // p75: rank 30, 9 beyond
  EXPECT_EQ(tail_percentile(40), 75.0);   // p75: rank 30, 10 beyond
  EXPECT_EQ(tail_percentile(99), 75.0);   // p90: rank 90, 9 beyond
  EXPECT_EQ(tail_percentile(100), 90.0);  // p90: rank 90, 10 beyond
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(334), 95.0);  // p99: rank 331, 3 beyond
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 50), 2.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(SelfTime, SubtractsChildCoverage) {
  const std::vector<Span> spans = {
      span("unit", 1, 0, 0.0, 10.0),
      span("core.build_next", 2, 1, 1.0, 4.0),
      span("pow.solve", 3, 1, 5.0, 6.0),
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), 3u);
  EXPECT_DOUBLE_EQ(self[0], 6.0);  // 10 - 3 - 1
  EXPECT_DOUBLE_EQ(self[1], 3.0);  // leaves keep their duration
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(SelfTime, OverlapCountedOnceAndClippedToParent) {
  const std::vector<Span> spans = {
      span("unit", 1, 0, 0.0, 10.0),
      span("a.x", 2, 1, 2.0, 6.0),
      span("a.y", 3, 1, 4.0, 8.0),    // overlaps a.x on [4, 6]
      span("a.z", 4, 1, 9.0, 12.0),   // runs past the parent's end
      span("a.w", 5, 2, 3.0, 4.0),    // grandchild: only a.x loses it
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 6.0 - 1.0);  // [2,8] and [9,10]
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(UnattributedShare, UncoveredPartOfUnits) {
  const std::vector<Span> spans = {
      Span{"setup", 1, 0, 0, 0.0, 100.0},  // set-up is not a unit
      span("unit", 2, 0, 100.0, 110.0),
      span("core.build_next", 3, 2, 100.0, 108.0),
      span("unit", 4, 0, 110.0, 120.0),
      span("core.build_next", 5, 4, 111.0, 120.0),
  };
  EXPECT_DOUBLE_EQ(unattributed_share(spans), 3.0 / 20.0);
  EXPECT_EQ(unattributed_share({}), 0.0);
}

TEST(Tracer, ParentsUnitsAndDisabledPath) {
  Tracer on(true);
  on.open_root("unit", 7);
  const int value = on.call("core.build_next", [] { return 42; });
  on.close_root();
  EXPECT_EQ(value, 42);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, on.spans()[0].id);
  EXPECT_EQ(on.spans()[1].unit, 7u);
  EXPECT_LE(on.spans()[1].end, on.spans()[0].end);

  Tracer off(false);
  off.open_root("unit", 1);
  EXPECT_EQ(off.call("pow.solve", [] { return 5; }), 5);
  off.close_root();
  EXPECT_TRUE(off.spans().empty());
}

TEST(ChromeTrace, OneCompleteEventPerSpan) {
  const std::string json = chrome_trace_json({
      span("unit", 1, 0, 0.0, 1.0),
      span("core.build_next", 2, 1, 0.25, 0.5),
  });
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.build_next\",\"cat\":\"core\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":250000.000,\"dur\":250000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
