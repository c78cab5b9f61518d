#include "power/trace.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace pas::power {
namespace {

PowerTrace make_trace(std::initializer_list<double> watts, TimeNs spacing = milliseconds(1)) {
  PowerTrace t;
  TimeNs now = spacing;
  for (double w : watts) {
    t.add(now, w);
    now += spacing;
  }
  return t;
}

// Same values at deliberately irregular spacings: exercises the
// explicit-timestamps fallback for every analysis.
PowerTrace make_irregular(std::initializer_list<double> watts) {
  PowerTrace t;
  TimeNs now = 0;
  int i = 0;
  for (double w : watts) {
    now += milliseconds(1) + microseconds(137 * (++i % 7));
    t.add(now, w);
  }
  return t;
}

TEST(PowerTrace, BasicStats) {
  const PowerTrace t = make_trace({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t.mean_power(), 2.5);
  EXPECT_DOUBLE_EQ(t.min_power(), 1.0);
  EXPECT_DOUBLE_EQ(t.max_power(), 4.0);
  EXPECT_EQ(t.duration(), milliseconds(3));
}

TEST(PowerTrace, UniformGridStorage) {
  const PowerTrace t = make_trace({1.0, 2.0, 3.0, 4.0});
  EXPECT_TRUE(t.is_uniform());
  EXPECT_EQ(t.period(), milliseconds(1));
  EXPECT_EQ(t.start_time(), milliseconds(1));
  EXPECT_EQ(t.time_at(3), milliseconds(4));
  EXPECT_EQ(t.time_at(2), milliseconds(3));
  EXPECT_DOUBLE_EQ(t.watts()[2], 3.0);
  EXPECT_EQ(t.watts().size(), 4u);
}

TEST(PowerTrace, NonUniformFallbackPreservesSamples) {
  PowerTrace t = make_trace({1.0, 2.0, 3.0});
  EXPECT_TRUE(t.is_uniform());
  // An off-grid sample degrades the trace to explicit timestamps; every
  // earlier timestamp must be preserved exactly.
  t.add(milliseconds(3) + microseconds(250), 4.0);
  EXPECT_FALSE(t.is_uniform());
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.time_at(0), milliseconds(1));
  EXPECT_EQ(t.time_at(1), milliseconds(2));
  EXPECT_EQ(t.time_at(2), milliseconds(3));
  EXPECT_EQ(t.time_at(3), milliseconds(3) + microseconds(250));
  EXPECT_DOUBLE_EQ(t.watts()[3], 4.0);
  EXPECT_DOUBLE_EQ(t.mean_power(), 2.5);
  EXPECT_DOUBLE_EQ(t.min_power(), 1.0);
  EXPECT_DOUBLE_EQ(t.max_power(), 4.0);
  // Further samples keep appending on the fallback path.
  t.add(milliseconds(5), 5.0);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.end_time(), milliseconds(5));
}

TEST(PowerTrace, NonMonotonicTimestampsAbort) {
  PowerTrace t;
  t.add(milliseconds(2), 1.0);
  EXPECT_DEATH(t.add(milliseconds(1), 1.0), "increasing");
  EXPECT_DEATH(t.add(milliseconds(2), 1.0), "increasing");
}

TEST(PowerTrace, NonMonotonicTimestampsAbortOnFallbackPath) {
  PowerTrace t = make_irregular({1.0, 2.0, 3.0});
  ASSERT_FALSE(t.is_uniform());
  EXPECT_DEATH(t.add(t.end_time(), 4.0), "increasing");
  EXPECT_DEATH(t.add(t.end_time() - 1, 4.0), "increasing");
}

TEST(PowerTrace, EnergyRectangleRule) {
  const PowerTrace t = make_trace({5.0, 5.0, 5.0, 5.0, 5.0}, milliseconds(100));
  // 4 intervals of 0.1 s at 5 W (first sample has no preceding interval).
  EXPECT_NEAR(t.energy(), 4 * 0.1 * 5.0, 1e-12);
}

TEST(PowerTrace, MaxWindowAverageFindsBurst) {
  // 10 samples at 1 W, then 10 at 11 W, then 10 at 1 W; 1 ms spacing.
  PowerTrace t;
  TimeNs now = 0;
  for (int i = 0; i < 30; ++i) {
    now += milliseconds(1);
    t.add(now, (i >= 10 && i < 20) ? 11.0 : 1.0);
  }
  // A 10 ms window isolates (most of) the burst: at least 10 of its 11
  // samples are burst samples.
  const double w10 = t.max_window_average(milliseconds(10));
  EXPECT_GE(w10, (10 * 11.0 + 1 * 1.0) / 11.0);
  EXPECT_LE(w10, 11.0);
  // A window longer than the trace degrades to the overall mean.
  EXPECT_NEAR(t.max_window_average(seconds(1)), (10 * 1.0 + 10 * 11.0 + 10 * 1.0) / 30.0,
              1e-9);
}

TEST(PowerTrace, MaxWindowAverageShorterThanWindowIsMean) {
  const PowerTrace t = make_trace({2.0, 4.0, 6.0});
  // Trace spans 2 ms; any longer window must fall back to the overall mean,
  // bit-for-bit.
  EXPECT_EQ(t.max_window_average(milliseconds(5)), t.mean_power());
  EXPECT_EQ(t.max_window_average(seconds(10)), t.mean_power());
}

TEST(PowerTrace, MaxWindowAverageSingleSample) {
  PowerTrace t;
  t.add(milliseconds(1), 7.0);
  EXPECT_DOUBLE_EQ(t.max_window_average(milliseconds(10)), 7.0);
}

TEST(PowerTrace, SingleSampleTrace) {
  PowerTrace t;
  t.add(milliseconds(3), 7.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.is_uniform());
  EXPECT_EQ(t.start_time(), milliseconds(3));
  EXPECT_EQ(t.end_time(), milliseconds(3));
  EXPECT_EQ(t.duration(), 0);
  EXPECT_DOUBLE_EQ(t.mean_power(), 7.0);
  EXPECT_DOUBLE_EQ(t.min_power(), 7.0);
  EXPECT_DOUBLE_EQ(t.max_power(), 7.0);
  EXPECT_DOUBLE_EQ(t.energy(), 0.0);
  const TraceSummary s = t.analyze(seconds(10));
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean_w, 7.0);
  EXPECT_DOUBLE_EQ(s.max_window_w, 7.0);
  // Slicing around the lone sample respects the half-open interval.
  EXPECT_EQ(t.slice(milliseconds(3), milliseconds(4)).size(), 1u);
  EXPECT_TRUE(t.slice(milliseconds(3), milliseconds(3)).empty());
  EXPECT_TRUE(t.slice(milliseconds(4), milliseconds(5)).empty());
  EXPECT_TRUE(t.slice(0, milliseconds(3)).empty());
}

TEST(PowerTrace, AnalyzeMatchesSeparatePasses) {
  // The fused pass must be bit-identical to the four standalone reductions,
  // on both representations.
  for (const bool irregular : {false, true}) {
    PowerTrace t = irregular ? make_irregular({3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0})
                             : make_trace({3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0});
    for (const TimeNs window : {milliseconds(2), milliseconds(4), seconds(10)}) {
      const TraceSummary s = t.analyze(window);
      EXPECT_EQ(s.count, t.size());
      EXPECT_EQ(s.min_w, t.min_power()) << irregular;
      EXPECT_EQ(s.max_w, t.max_power()) << irregular;
      EXPECT_EQ(s.mean_w, t.mean_power()) << irregular;
      EXPECT_EQ(s.max_window_w, t.max_window_average(window)) << irregular;
    }
  }
}

TEST(PowerTrace, SliceHalfOpen) {
  const PowerTrace t = make_trace({1.0, 2.0, 3.0, 4.0, 5.0});  // at 1..5 ms
  const TraceView s = t.slice(milliseconds(2), milliseconds(4));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.min_power(), 2.0);  // two samples: 2 W, then 3 W
  EXPECT_DOUBLE_EQ(s.max_power(), 3.0);
  // `from` lands ON a sample: included. `to` lands ON a sample: excluded.
  EXPECT_EQ(s.start_time(), milliseconds(2));
  EXPECT_EQ(s.end_time(), milliseconds(3));
  // Bounds between samples and beyond either end clamp correctly.
  EXPECT_EQ(t.slice(microseconds(1500), microseconds(4500)).size(), 3u);
  EXPECT_EQ(t.slice(0, seconds(1)).size(), 5u);
  EXPECT_TRUE(t.slice(0, milliseconds(1)).empty());
  EXPECT_EQ(t.slice(milliseconds(5), seconds(1)).size(), 1u);
}

TEST(PowerTrace, SliceEmptyRange) {
  const PowerTrace t = make_trace({1.0, 2.0});
  EXPECT_TRUE(t.slice(seconds(1), seconds(2)).empty());
  EXPECT_TRUE(PowerTrace{}.slice(0, seconds(1)).empty());
}

TEST(PowerTrace, SliceOnFallbackRepresentation) {
  PowerTrace t = make_irregular({1.0, 2.0, 3.0, 4.0, 5.0});
  ASSERT_FALSE(t.is_uniform());
  const TimeNs t1 = t.time_at(1);
  const TimeNs t3 = t.time_at(3);
  const TraceView s = t.slice(t1, t3);  // [t1, t3): samples 1 and 2
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.min_power(), 2.0);  // two samples: 2 W, then 3 W
  EXPECT_DOUBLE_EQ(s.max_power(), 3.0);
  EXPECT_EQ(s.start_time(), t1);
  EXPECT_EQ(s.time_at(1), t.time_at(2));
}

TEST(PowerTrace, ViewMatchesOwningTraceAnalytics) {
  const PowerTrace t = make_trace({1.0, 2.0, 3.0, 4.0, 5.0});
  const TraceView full = t.view();
  EXPECT_EQ(full.size(), t.size());
  EXPECT_EQ(full.mean_power(), t.mean_power());
  EXPECT_EQ(full.min_power(), t.min_power());
  EXPECT_EQ(full.max_power(), t.max_power());
  EXPECT_EQ(full.energy(), t.energy());
  EXPECT_EQ(full.max_window_average(milliseconds(2)), t.max_window_average(milliseconds(2)));
  // A sub-view computes over its own [from, to) samples only.
  const TraceView mid = t.slice(milliseconds(2), milliseconds(5));
  EXPECT_DOUBLE_EQ(mid.mean_power(), 3.0);
  EXPECT_DOUBLE_EQ(mid.min_power(), 2.0);
  EXPECT_DOUBLE_EQ(mid.max_power(), 4.0);
  EXPECT_EQ(mid.duration(), milliseconds(2));
  // Empty views have safe reductions.
  const TraceView none = t.slice(seconds(1), seconds(2));
  EXPECT_DOUBLE_EQ(none.mean_power(), 0.0);
  EXPECT_DOUBLE_EQ(none.energy(), 0.0);
  EXPECT_DOUBLE_EQ(none.max_window_average(seconds(1)), 0.0);
}

TEST(PowerTrace, UniformFactoryWrapsValuesWithoutCopy) {
  const PowerTrace t =
      PowerTrace::uniform(milliseconds(5), milliseconds(2), {1.0, 2.0, 3.0});
  EXPECT_TRUE(t.is_uniform());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.start_time(), milliseconds(5));
  EXPECT_EQ(t.end_time(), milliseconds(9));
  EXPECT_DOUBLE_EQ(t.mean_power(), 2.0);
}

TEST(PowerTrace, AccumulateAlignedSumsPointwise) {
  PowerTrace a = make_trace({1.0, 2.0, 3.0});
  const PowerTrace b = make_trace({0.5, 0.5, 0.5});
  a.accumulate_aligned(b);
  EXPECT_DOUBLE_EQ(a.watts()[0], 1.5);
  EXPECT_DOUBLE_EQ(a.watts()[1], 2.5);
  EXPECT_DOUBLE_EQ(a.watts()[2], 3.5);
  EXPECT_EQ(a.start_time(), milliseconds(1));
  // Fallback representations align as long as the timestamps match.
  PowerTrace c = make_trace({1.0, 2.0, 3.0});
  c.add(microseconds(3500), 4.0);  // off-grid: degrades to explicit times
  PowerTrace d = make_trace({1.0, 2.0, 3.0});
  d.add(microseconds(3500), 4.0);
  ASSERT_FALSE(c.is_uniform());
  c.accumulate_aligned(d);
  EXPECT_DOUBLE_EQ(c.watts()[3], 8.0);
}

TEST(PowerTrace, AccumulateMisalignedAborts) {
  PowerTrace a = make_trace({1.0, 2.0, 3.0});
  const PowerTrace shorter = make_trace({1.0, 2.0});
  EXPECT_DEATH(a.accumulate_aligned(shorter), "misaligned");
  const PowerTrace shifted = make_trace({1.0, 2.0, 3.0}, milliseconds(2));
  EXPECT_DEATH(a.accumulate_aligned(shifted), "misaligned");
}

TEST(PowerTrace, DistributionSummary) {
  PowerTrace t;
  TimeNs now = 0;
  for (int i = 1; i <= 100; ++i) {
    now += milliseconds(1);
    t.add(now, static_cast<double>(i));
  }
  const DistributionSummary d = t.distribution();
  EXPECT_EQ(d.count, 100u);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 100.0);
  EXPECT_NEAR(d.median, 50.5, 1e-9);
  EXPECT_NEAR(d.mean, 50.5, 1e-9);
}

TEST(PowerTrace, EmptyTraceSafeDefaults) {
  PowerTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.mean_power(), 0.0);
  EXPECT_DOUBLE_EQ(t.energy(), 0.0);
  EXPECT_DOUBLE_EQ(t.max_window_average(seconds(10)), 0.0);
  const TraceSummary s = t.analyze(seconds(10));
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean_w, 0.0);
}

}  // namespace
}  // namespace pas::power
