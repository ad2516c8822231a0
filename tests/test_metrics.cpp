// Unit tests for the metrics/statistics helpers and trace primitives used
// by every experiment binary.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace wfd::sim {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary summary;
  EXPECT_EQ(summary.count(), 0u);
  EXPECT_EQ(summary.mean(), 0.0);
  EXPECT_EQ(summary.min(), 0.0);
  EXPECT_EQ(summary.max(), 0.0);
  EXPECT_EQ(summary.median(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary summary;
  summary.add(42.0);
  EXPECT_EQ(summary.count(), 1u);
  EXPECT_EQ(summary.mean(), 42.0);
  EXPECT_EQ(summary.min(), 42.0);
  EXPECT_EQ(summary.max(), 42.0);
  EXPECT_EQ(summary.percentile(0.0), 42.0);
  EXPECT_EQ(summary.percentile(1.0), 42.0);
}

TEST(Summary, OrderInsensitive) {
  Summary a, b;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) a.add(x);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) b.add(x);
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 5.0);
  EXPECT_EQ(a.mean(), 3.0);
}

TEST(Summary, PercentilesMonotone) {
  Summary summary;
  for (int i = 0; i < 100; ++i) summary.add(static_cast<double>(i));
  double prev = -1.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double value = summary.percentile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
  EXPECT_EQ(summary.percentile(0.0), 0.0);
  EXPECT_EQ(summary.percentile(1.0), 99.0);
}

TEST(Summary, NearestRankAtSmallSampleCounts) {
  // Nearest-rank: percentile(q) is the ceil(q*n)-th smallest sample. With
  // two samples the median is the FIRST (ceil(0.5*2) = 1) — the old
  // midpoint-rounding picked the second.
  Summary two;
  two.add(1.0);
  two.add(2.0);
  EXPECT_EQ(two.median(), 1.0);
  EXPECT_EQ(two.percentile(0.25), 1.0);
  EXPECT_EQ(two.percentile(0.75), 2.0);
  EXPECT_EQ(two.percentile(1.0), 2.0);

  Summary four;
  for (double x : {10.0, 20.0, 30.0, 40.0}) four.add(x);
  EXPECT_EQ(four.percentile(0.25), 10.0);  // ceil(1.0) = rank 1
  EXPECT_EQ(four.median(), 20.0);          // ceil(2.0) = rank 2
  EXPECT_EQ(four.percentile(0.51), 30.0);  // ceil(2.04) = rank 3
  EXPECT_EQ(four.percentile(0.75), 30.0);  // ceil(3.0) = rank 3
  EXPECT_EQ(four.percentile(0.76), 40.0);  // ceil(3.04) = rank 4
}

TEST(Summary, PercentileClampsOutOfRangeQuantiles) {
  Summary summary;
  summary.add(5.0);
  summary.add(7.0);
  EXPECT_EQ(summary.percentile(-0.5), 5.0);
  EXPECT_EQ(summary.percentile(1.5), 7.0);
}

TEST(Summary, MinMaxAfterIncrementalAdds) {
  Summary summary;
  summary.add(3.0);
  EXPECT_EQ(summary.min(), 3.0);
  summary.add(-1.0);  // re-sorts lazily after the earlier query
  summary.add(9.0);
  EXPECT_EQ(summary.min(), -1.0);
  EXPECT_EQ(summary.max(), 9.0);
}

TEST(Summary, AddAfterQueryStillCorrect) {
  Summary summary;
  summary.add(10.0);
  EXPECT_EQ(summary.median(), 10.0);
  summary.add(20.0);
  summary.add(0.0);
  EXPECT_EQ(summary.median(), 10.0);
  EXPECT_EQ(summary.max(), 20.0);
}

TEST(Trace, CapacityBoundsRetention) {
  Trace trace(/*max_events=*/3);
  for (int i = 0; i < 10; ++i) {
    trace.emit(Event{static_cast<Time>(i), EventKind::kStep, 0, 0, 0, 0});
  }
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].time, 0u);  // keeps the prefix
}

TEST(Trace, ObserversSeeEverythingRegardlessOfCapacity) {
  Trace trace(/*max_events=*/0);
  int seen = 0;
  trace.subscribe_kinds(kAllEventKinds, [&](const Event&) { ++seen; });
  for (int i = 0; i < 7; ++i) {
    trace.emit(Event{0, EventKind::kSend, 0, 0, 0, 0});
  }
  EXPECT_EQ(seen, 7);
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, EventToStringContainsFields) {
  const Event event{123, EventKind::kDeliver, 4, 5, 6, 7};
  const std::string text = to_string(event);
  EXPECT_NE(text.find("t=123"), std::string::npos);
  EXPECT_NE(text.find("p4"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("a=5"), std::string::npos);
}

TEST(Trace, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(EventKind::kCustom); ++k) {
    EXPECT_STRNE(to_string(static_cast<EventKind>(k)), "?");
  }
}

// Regression: constructing a Trace with a capacity used to enable EVERY
// kind, dragging all events off the zero-cost path just to retain a few.
// Retention is now scoped by its own kind mask.
TEST(Trace, RetentionScopedByKindMask) {
  Trace trace(/*max_events=*/8, kind_mask(EventKind::kDinerTransition));
  EXPECT_FALSE(trace.wants(EventKind::kStep));
  EXPECT_TRUE(trace.wants(EventKind::kDinerTransition));
  trace.emit(Event{1, EventKind::kStep, 0, 0, 0, 0});
  trace.emit(Event{2, EventKind::kDinerTransition, 0, 0, 0, 1});
  trace.emit(Event{3, EventKind::kSend, 0, 1, 0, 0});
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kDinerTransition);
}

// Retention scoping composes with subscriptions: a subscription enables its
// kinds for dispatch, but the retention buffer still only keeps its own.
TEST(Trace, SubscriptionDoesNotWidenRetention) {
  Trace trace(/*max_events=*/8, kind_mask(EventKind::kCrash));
  int steps_seen = 0;
  trace.subscribe_kinds(kind_mask(EventKind::kStep),
                        [&](const Event&) { ++steps_seen; });
  trace.emit(Event{1, EventKind::kStep, 0, 0, 0, 0});
  trace.emit(Event{2, EventKind::kCrash, 1, 0, 0, 0});
  EXPECT_EQ(steps_seen, 1);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kCrash);
}

// Regression: raw record kinds >= 64 alias low mask bits on the cheap
// `wants` pre-check; dispatch used to deliver them to typed observers that
// never subscribed to them (kind 64 aliases kStep's bit). The exact-kind
// re-check must keep them out of typed subscriptions (and out of aliased
// retention) while full-mask observers still see everything.
TEST(Trace, AliasedRawKindsNeverReachTypedObservers) {
  Trace trace(/*max_events=*/4, kind_mask(EventKind::kStep));
  int step_calls = 0;
  int all_calls = 0;
  trace.subscribe_kinds(kind_mask(EventKind::kStep),
                        [&](const Event&) { ++step_calls; });
  trace.subscribe_kinds(kAllEventKinds, [&](const Event&) { ++all_calls; });
  const Event aliased{1, static_cast<EventKind>(64), 0, 0, 0, 0};
  trace.emit(aliased);
  EXPECT_EQ(step_calls, 0) << "raw kind 64 rode kStep's aliased mask bit";
  EXPECT_EQ(all_calls, 1);
  EXPECT_TRUE(trace.events().empty())
      << "raw kind 64 must not be retained under kStep's retention bit";
  trace.emit(Event{2, EventKind::kStep, 0, 0, 0, 0});
  EXPECT_EQ(step_calls, 1);
  EXPECT_EQ(all_calls, 2);
  EXPECT_EQ(trace.events().size(), 1u);
}

TEST(Trace, TruncationIsCounted) {
  Trace trace(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    trace.emit(Event{static_cast<Time>(i), EventKind::kStep, 0, 0, 0, 0});
  }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.truncated(), 3u);
}

TEST(Table, PrintsAlignedHeader) {
  Table table({"alpha", "beta"}, 8);
  ::testing::internal::CaptureStdout();
  table.print_header();
  table.print_row(1, "x");
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find('1'), std::string::npos);
}

}  // namespace
}  // namespace wfd::sim
