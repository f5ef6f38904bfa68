#include "src/perfiso/io_throttler.h"

#include <gtest/gtest.h>

#include <map>

namespace perfiso {
namespace {

// A scriptable platform for exercising the §4.1 demand/deficit formulas.
class FakePlatform : public Platform {
 public:
  int NumCores() const override { return 48; }
  SimTime NowNs() override { return now_; }
  CpuSet IdleCores() override { return CpuSet(); }
  Status SetSecondaryAffinity(const CpuSet&) override { return OkStatus(); }
  Status SetSecondaryCpuRateCap(double) override { return OkStatus(); }
  StatusOr<int64_t> FreeMemoryBytes() override { return int64_t{1} << 40; }
  Status KillSecondary() override { return OkStatus(); }
  Status SetIoPriority(int owner, int priority) override {
    priorities_[owner] = priority;
    ++priority_sets_;
    return OkStatus();
  }
  Status SetIoIopsCap(int owner, double iops) override {
    iops_caps_[owner] = iops;
    return OkStatus();
  }
  Status SetIoBandwidthCap(int owner, double bps) override {
    bandwidth_caps_[owner] = bps;
    return OkStatus();
  }
  StatusOr<int64_t> IoOpsCompleted(int owner) override { return ops_[owner]; }
  Status SetEgressRateCap(double) override { return OkStatus(); }

  // Advances time by 1 s and adds one second's worth of ops at `iops`.
  void Tick(const std::map<int, int64_t>& iops) {
    now_ += kSecond;
    for (const auto& [owner, rate] : iops) {
      ops_[owner] += rate;
    }
  }

  SimTime now_ = 0;
  std::map<int, int64_t> ops_;
  std::map<int, int> priorities_;
  std::map<int, double> iops_caps_;
  std::map<int, double> bandwidth_caps_;
  int priority_sets_ = 0;
};

std::vector<IoOwnerLimit> TwoOwners() {
  // Owner 1: guaranteed 200 IOPS, base priority 1, weight 1.
  // Owner 2: no guarantee, base priority 1, weight 1.
  return {IoOwnerLimit{1, 0, 0, 1, 1.0, 200}, IoOwnerLimit{2, 0, 0, 1, 1.0, 0}};
}

TEST(IoThrottlerTest, StaticLimitsApplied) {
  FakePlatform platform;
  std::vector<IoOwnerLimit> limits = {IoOwnerLimit{5, 60e6, 100, 2, 1.0, 0}};
  IoThrottler throttler(&platform, limits, /*window_polls=*/16);
  ASSERT_TRUE(throttler.ApplyStaticLimits().ok());
  EXPECT_DOUBLE_EQ(platform.bandwidth_caps_[5], 60e6);
  EXPECT_DOUBLE_EQ(platform.iops_caps_[5], 100);
  EXPECT_EQ(platform.priorities_[5], 2);
}

TEST(IoThrottlerTest, ComputesDemandAsWeightedShare) {
  FakePlatform platform;
  IoThrottler throttler(&platform, TwoOwners(), /*window_polls=*/16);
  throttler.Poll(platform.NowNs());  // baseline
  for (int i = 0; i < 4; ++i) {
    platform.Tick({{1, 1000}, {2, 100}});
    throttler.Poll(platform.NowNs());
  }
  // Total 1100 IOPS, equal weights -> each owner's demand is 550.
  EXPECT_NEAR(throttler.Demand(1), 550, 1);
  EXPECT_NEAR(throttler.Demand(2), 550, 1);
  EXPECT_NEAR(throttler.SmoothedIops(1), 1000, 1);
}

TEST(IoThrottlerTest, HogAboveGuaranteeGetsDemoted) {
  FakePlatform platform;
  IoThrottler throttler(&platform, TwoOwners(), /*window_polls=*/16);
  ASSERT_TRUE(throttler.ApplyStaticLimits().ok());  // installs base priorities
  throttler.Poll(platform.NowNs());
  for (int i = 0; i < 4; ++i) {
    platform.Tick({{1, 1000}, {2, 100}});
    throttler.Poll(platform.NowNs());
  }
  // Owner 1's entitlement is min(lim=200, D=550) = 200; deficit = 4.0 > 0.5.
  EXPECT_GT(throttler.Deficit(1), 0.5);
  EXPECT_EQ(platform.priorities_[1], 2);  // demoted from base 1
  // Owner 2 is under its demand-share: stays at (or returns to) its base.
  EXPECT_LT(throttler.Deficit(2), 0);
  EXPECT_EQ(platform.priorities_[2], 1);
  EXPECT_GT(throttler.adjustments(), 0);
}

TEST(IoThrottlerTest, DemotionRevertsWhenLoadDrops) {
  FakePlatform platform;
  // A window of 2 polls: short memory so the revert is quick.
  IoThrottler throttler(&platform, TwoOwners(), /*window_polls=*/2);
  throttler.Poll(platform.NowNs());
  for (int i = 0; i < 3; ++i) {
    platform.Tick({{1, 1000}, {2, 100}});
    throttler.Poll(platform.NowNs());
  }
  ASSERT_EQ(platform.priorities_[1], 2);
  // The hog calms down below its guarantee.
  for (int i = 0; i < 4; ++i) {
    platform.Tick({{1, 50}, {2, 100}});
    throttler.Poll(platform.NowNs());
  }
  EXPECT_EQ(platform.priorities_[1], 1);  // promoted back to its base band
}

TEST(IoThrottlerTest, NoMeasurementNoAdjustment) {
  FakePlatform platform;
  IoThrottler throttler(&platform, TwoOwners(), /*window_polls=*/16);
  throttler.Poll(platform.NowNs());
  throttler.Poll(platform.NowNs());  // same timestamp: no window elapsed
  EXPECT_EQ(throttler.adjustments(), 0);
}

}  // namespace
}  // namespace perfiso
