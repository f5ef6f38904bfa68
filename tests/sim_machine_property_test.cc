// Property-style sweeps over the scheduler: conservation of CPU time,
// work-conservation without affinity restrictions, and rate-cap accuracy.
#include <gtest/gtest.h>

#include <tuple>

#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfiso {
namespace {

MachineSpec SpecWith(int cores, SimDuration quantum) {
  MachineSpec spec;
  spec.num_cores = cores;
  spec.quantum = quantum;
  spec.context_switch = 0;
  spec.throttle_interval = FromMillis(20);
  return spec;
}

// --- Work conservation: N loop threads on C cores use min(N, C) * T of CPU ---

class WorkConservationTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WorkConservationTest, LoopThreadsSaturateExactly) {
  const int cores = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  Simulator sim;
  SimMachine machine(&sim, SpecWith(cores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("hogs");
  for (int i = 0; i < threads; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = FromMillis(200);
  sim.RunUntil(window);
  const SimDuration expected = static_cast<SimDuration>(std::min(cores, threads)) * window;
  EXPECT_EQ(*machine.JobCpuTime(job), expected);
  EXPECT_EQ(machine.IdleCount(), std::max(0, cores - threads));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkConservationTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 48),
                                            ::testing::Values(1, 3, 8, 48, 64)));

// --- CPU-time conservation under random fan-out workloads ---------------------

class ConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationTest, BusyTimeEqualsWorkSubmitted) {
  Simulator sim;
  SimMachine machine(&sim, SpecWith(8, FromMillis(5)), "m0");
  Rng rng(GetParam());
  SimDuration total_work = 0;
  int completions = 0;
  int spawns = 0;

  // Each completion may fan out into more threads, like a query pipeline.
  std::function<void(int)> spawn_tree = [&](int depth) {
    const SimDuration work = FromMicros(rng.Uniform(50, 3000));
    total_work += work;
    ++spawns;
    machine.SpawnThread(TenantClass::kPrimary, JobId{}, work, [&, depth](SimTime) {
      ++completions;
      if (depth < 3) {
        const int children = static_cast<int>(rng.UniformInt(0, 3));
        for (int c = 0; c < children; ++c) {
          spawn_tree(depth + 1);
        }
      }
    });
  };
  for (int i = 0; i < 40; ++i) {
    sim.Schedule(FromMicros(rng.Uniform(0, 5000)), [&] { spawn_tree(0); });
  }
  sim.RunUntilEmpty();

  EXPECT_EQ(completions, spawns);
  EXPECT_EQ(machine.metrics().busy_ns[static_cast<int>(TenantClass::kPrimary)], total_work);
  EXPECT_EQ(machine.IdleCount(), 8);
  // Capacity bound: busy cannot exceed cores * elapsed.
  EXPECT_LE(machine.metrics().TotalBusy(), 8 * sim.Now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Rate caps: measured duty cycle matches the configured cap ----------------

class RateCapTest : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(RateCapTest, MeasuredFractionMatchesCap) {
  const double cap = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  constexpr int kCores = 8;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("capped");
  ASSERT_TRUE(machine.SetJobCpuRateCap(job, cap).ok());
  for (int i = 0; i < threads; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = 2 * kSecond;
  sim.RunUntil(window);
  const double measured =
      ToSeconds(*machine.JobCpuTime(job)) / (ToSeconds(window) * kCores);
  // The job can use at most min(cap, threads/cores) of the machine; with
  // enough threads it should achieve the cap almost exactly.
  const double achievable = std::min(cap, static_cast<double>(threads) / kCores);
  EXPECT_LE(measured, achievable + 0.02);
  EXPECT_GE(measured, achievable - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RateCapTest,
                         ::testing::Combine(::testing::Values(0.05, 0.25, 0.45, 0.75),
                                            ::testing::Values(1, 4, 8, 16)));

// --- Affinity sweeps: a restricted job never exceeds its mask's capacity ------

class AffinityCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(AffinityCapacityTest, RestrictedJobBoundedByMask) {
  const int allowed = GetParam();
  constexpr int kCores = 16;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  const JobId job = machine.CreateJob("sec");
  ASSERT_TRUE(machine.SetJobAffinity(job, CpuSet::Range(kCores - allowed, kCores)).ok());
  for (int i = 0; i < kCores; ++i) {  // more threads than allowed cores
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  const SimDuration window = FromMillis(500);
  sim.RunUntil(window);
  EXPECT_EQ(*machine.JobCpuTime(job), static_cast<SimDuration>(allowed) * window);
  // Cores outside the mask stay idle.
  EXPECT_EQ(machine.IdleCount(), kCores - allowed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AffinityCapacityTest, ::testing::Values(1, 2, 4, 8, 15));

// --- Dynamic affinity changes never lose or double-count CPU time -------------

class AffinityChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffinityChurnTest, AccountingSurvivesRandomMaskChanges) {
  constexpr int kCores = 8;
  Simulator sim;
  SimMachine machine(&sim, SpecWith(kCores, FromMillis(10)), "m0");
  Rng rng(GetParam());
  const JobId job = machine.CreateJob("sec");
  for (int i = 0; i < kCores; ++i) {
    machine.SpawnLoopThread(TenantClass::kSecondary, job);
  }
  // Change the mask every millisecond to a random non-empty subset.
  SimDuration allowed_integral = 0;  // sum over time of allowed core count
  int current_allowed = kCores;
  SimTime last_change = 0;
  for (SimTime t = FromMillis(1); t <= FromMillis(200); t += FromMillis(1)) {
    sim.Schedule(t, [&, t] {
      allowed_integral += (t - last_change) * current_allowed;
      last_change = t;
      CpuSet mask;
      while (mask.Empty()) {
        mask = CpuSet::FromMask64(rng.Next() & ((1u << kCores) - 1));
      }
      current_allowed = mask.Count();
      ASSERT_TRUE(machine.SetJobAffinity(job, mask).ok());
    });
  }
  sim.RunUntil(FromMillis(200));
  allowed_integral += (FromMillis(200) - last_change) * current_allowed;
  // With one hog per core, the job consumes exactly the allowed capacity.
  EXPECT_EQ(*machine.JobCpuTime(job), allowed_integral);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffinityChurnTest, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace perfiso
