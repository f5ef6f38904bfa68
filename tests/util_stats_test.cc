#include "src/util/stats.h"

#include <gtest/gtest.h>

namespace perfiso {
namespace {

TEST(LatencyRecorderTest, EmptyReturnsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Count(), 0u);
  EXPECT_EQ(rec.P99(), 0);
  EXPECT_EQ(rec.Mean(), 0);
}

TEST(LatencyRecorderTest, ExactPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Add(i);
  }
  EXPECT_EQ(rec.P50(), 50);
  EXPECT_EQ(rec.P95(), 95);
  EXPECT_EQ(rec.P99(), 99);
  EXPECT_EQ(rec.Percentile(100), 100);
  EXPECT_EQ(rec.Percentile(0), 1);
  EXPECT_EQ(rec.Min(), 1);
  EXPECT_EQ(rec.Max(), 100);
  EXPECT_NEAR(rec.Mean(), 50.5, 1e-9);
}

TEST(LatencyRecorderTest, UnsortedInput) {
  LatencyRecorder rec;
  rec.Add(9);
  rec.Add(1);
  rec.Add(5);
  EXPECT_EQ(rec.P50(), 5);
  EXPECT_EQ(rec.Max(), 9);
}

TEST(LatencyRecorderTest, InterleavedAddAndQuery) {
  LatencyRecorder rec;
  rec.Add(10);
  EXPECT_EQ(rec.P99(), 10);
  rec.Add(20);
  EXPECT_EQ(rec.P99(), 20);  // cache must invalidate on Add
  rec.Clear();
  EXPECT_EQ(rec.Count(), 0u);
}

TEST(LatencyRecorderTest, MergeAppendsInOrderAndPreservesDigestSemantics) {
  LatencyRecorder a;
  a.Add(1);
  a.Add(2);
  LatencyRecorder b;
  b.Add(3);
  b.Add(4);

  LatencyRecorder combined;  // one recorder that saw A's samples then B's
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    combined.Add(x);
  }

  a.Merge(b);
  EXPECT_EQ(a.Count(), 4u);
  EXPECT_EQ(a.samples(), combined.samples());
  EXPECT_EQ(a.Digest(), combined.Digest());
  EXPECT_NEAR(a.Mean(), 2.5, 1e-12);
  EXPECT_EQ(a.Max(), 4);
  // The source is untouched.
  EXPECT_EQ(b.Count(), 2u);
}

TEST(LatencyRecorderTest, MergeEmptyIsIdentity) {
  LatencyRecorder a;
  a.Add(7);
  const uint64_t digest = a.Digest();
  LatencyRecorder empty;
  a.Merge(empty);
  EXPECT_EQ(a.Digest(), digest);
  empty.Merge(a);
  EXPECT_EQ(empty.Digest(), digest);
}

TEST(LatencyRecorderTest, MergeInvalidatesPercentileCache) {
  LatencyRecorder a;
  a.Add(10);
  EXPECT_EQ(a.P99(), 10);  // forces the sorted cache
  LatencyRecorder b;
  b.Add(20);
  a.Merge(b);
  EXPECT_EQ(a.P99(), 20);
}

TEST(MovingAverageTest, WindowEviction) {
  MovingAverage ma(3);
  ma.Add(3);
  EXPECT_EQ(ma.Value(), 3);
  ma.Add(6);
  ma.Add(9);
  EXPECT_EQ(ma.Value(), 6);
  ma.Add(12);  // evicts 3
  EXPECT_EQ(ma.Value(), 9);
  EXPECT_TRUE(ma.Full());
}

TEST(MeanVarTest, KnownValues) {
  MeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    mv.Add(x);
  }
  EXPECT_NEAR(mv.Mean(), 5.0, 1e-9);
  EXPECT_NEAR(mv.Variance(), 32.0 / 7.0, 1e-9);  // sample variance
}

}  // namespace
}  // namespace perfiso
