#include "src/perfiso/controller.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/platform/linux_platform.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/workload/bullies.h"

namespace perfiso {
namespace {

struct Rig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  JobId secondary;
  std::unique_ptr<CpuBully> bully;

  explicit Rig(int bully_threads = 48) {
    spec.context_switch = 0;
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    secondary = machine->CreateJob("secondary");
    platform->AddSecondaryJob(secondary);
    if (bully_threads > 0) {
      bully = std::make_unique<CpuBully>(machine.get(), secondary, bully_threads);
    }
  }

  PerfIsoController MakeController(const PerfIsoConfig& config) {
    return PerfIsoController(platform.get(), config);
  }
};

PerfIsoConfig BlindConfig(int buffer = 8) {
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = buffer;
  return config;
}

TEST(PerfIsoControllerTest, BlindIsolationConvergesToBufferIdleCores) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(50));
  // Bully-only machine: the secondary should own 40 cores, 8 stay idle.
  EXPECT_EQ(rig.machine->IdleCount(), 8);
  EXPECT_EQ(controller.secondary_cores(), 40);
}

TEST(PerfIsoControllerTest, PollUpdateSplitAvoidsRedundantUpdates) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(kSecond);
  // ~1000 polls at steady state, but only a handful of affinity updates.
  EXPECT_GT(controller.stats().polls, 900);
  EXPECT_LT(controller.stats().affinity_updates, 10);
}

TEST(PerfIsoControllerTest, ReactsToPrimaryBurst) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(20));
  ASSERT_EQ(controller.secondary_cores(), 40);
  // A burst of primary threads occupies 20 of the buffer/primary cores.
  rig.sim.Schedule(FromMillis(20), [&] {
    for (int i = 0; i < 20; ++i) {
      rig.machine->SpawnThread(TenantClass::kPrimary, JobId{}, FromMillis(300),
                               nullptr);
    }
  });
  rig.sim.RunUntil(FromMillis(100));
  // The controller must have shrunk the secondary to restore the buffer:
  // S = 48 - 20 (primary) - 8 (buffer) = 20.
  EXPECT_EQ(controller.secondary_cores(), 20);
  EXPECT_EQ(rig.machine->IdleCount(), 8);
  // After the burst drains, the secondary grows back.
  rig.sim.RunUntil(kSecond);
  EXPECT_EQ(controller.secondary_cores(), 40);
}

TEST(PerfIsoControllerTest, KillSwitchRestoresDefaults) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(50));
  ASSERT_EQ(rig.machine->IdleCount(), 8);

  ASSERT_TRUE(controller.SetActive(false).ok());
  rig.sim.RunUntil(FromMillis(60));
  EXPECT_EQ(rig.machine->IdleCount(), 0);  // secondary unrestricted again

  ASSERT_TRUE(controller.SetActive(true).ok());
  rig.sim.RunUntil(FromMillis(200));
  EXPECT_EQ(rig.machine->IdleCount(), 8);
}

TEST(PerfIsoControllerTest, DisabledConfigNeverTouchesKnobs) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(8);
  config.enabled = false;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  rig.sim.RunUntil(FromMillis(100));
  EXPECT_FALSE(controller.active());
  EXPECT_EQ(rig.machine->IdleCount(), 0);
  EXPECT_EQ(controller.stats().polls, 0);
}

TEST(PerfIsoControllerTest, StaticCoresModeApplied) {
  Rig rig;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kStaticCores;
  config.static_secondary_cores = 8;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  rig.sim.RunUntil(FromMillis(10));
  EXPECT_EQ(rig.machine->IdleCount(), 40);  // bully pinned to 8 high cores
  EXPECT_EQ((*rig.machine->JobAffinity(rig.secondary)), CpuSet::Range(40, 48));
}

TEST(PerfIsoControllerTest, CpuRateCapModeApplied) {
  Rig rig;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kCpuRateCap;
  config.cpu_rate_cap = 0.05;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  rig.sim.RunUntil(2 * kSecond);
  const double fraction = ToSeconds(*rig.machine->JobCpuTime(rig.secondary)) / (2.0 * 48);
  EXPECT_NEAR(fraction, 0.05, 0.01);
}

TEST(PerfIsoControllerTest, MemoryWatchdogKillsSecondary) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(8);
  config.min_free_memory_bytes = 8LL * 1024 * 1024 * 1024;
  config.memory_check_every_n_polls = 10;
  auto controller = rig.MakeController(config);
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  // The secondary balloons to within 4 GB of the 128 GB machine.
  ASSERT_TRUE(rig.machine
                  ->AddJobMemory(rig.secondary, rig.machine->FreeMemoryBytes() -
                                                    4LL * 1024 * 1024 * 1024)
                  .ok());
  rig.sim.RunUntil(FromMillis(100));
  EXPECT_EQ(controller.stats().memory_kills, 1);
  EXPECT_EQ(*rig.machine->JobLiveThreads(rig.secondary), 0);
  EXPECT_EQ(rig.machine->IdleCount(), 48);
}

TEST(PerfIsoControllerTest, InvalidConfigRejected) {
  Rig rig;
  PerfIsoConfig config = BlindConfig(48);  // buffer == cores
  auto controller = rig.MakeController(config);
  EXPECT_FALSE(controller.Initialize().ok());
}

// A platform whose egress shaper is unavailable (LinuxPlatform without
// tc/HTB privileges); everything else behaves normally.
class NoEgressPlatform : public SimPlatform {
 public:
  using SimPlatform::SimPlatform;
  Status SetEgressRateCap(double) override {
    return UnimplementedError("egress shaping requires tc/HTB");
  }
};

TEST(PerfIsoControllerTest, EgressCapUnimplementedDegradesToWarning) {
  // Regression: a cluster config with an egress cap used to hard-fail
  // Initialize() on LinuxPlatform (controller.cc propagated the
  // UNIMPLEMENTED from linux_platform.cc). Like the other unimplemented
  // Linux knobs it must degrade to a logged warning — CPU isolation still
  // comes up, and the kill switch still restores defaults.
  {
    LinuxPlatform platform;
    PerfIsoConfig config = BlindConfig(std::min(8, platform.NumCores() - 1));
    config.egress_rate_cap_bps = 50e6;
    PerfIsoController controller(&platform, config);
    EXPECT_TRUE(controller.Initialize().ok());
  }
  {
    Simulator sim;
    MachineSpec spec;
    SimMachine machine(&sim, spec, "m0");
    NoEgressPlatform platform(&machine, nullptr);
    JobId secondary = machine.CreateJob("secondary");
    platform.AddSecondaryJob(secondary);
    PerfIsoConfig config = BlindConfig(8);
    config.egress_rate_cap_bps = 50e6;
    PerfIsoController controller(&platform, config);
    ASSERT_TRUE(controller.Initialize().ok());
    // The kill switch must also survive the unimplemented egress-cap clear.
    EXPECT_TRUE(controller.SetActive(false).ok());
  }
}

TEST(PerfIsoControllerTest, SecondarySuspendedWhenPrimaryNeedsEverything) {
  Rig rig;
  auto controller = rig.MakeController(BlindConfig(8));
  ASSERT_TRUE(controller.Initialize().ok());
  controller.AttachToSimulator(&rig.sim);
  // Saturate the machine with primary work.
  for (int i = 0; i < 48; ++i) {
    rig.machine->SpawnThread(TenantClass::kPrimary, JobId{}, 2 * kSecond, nullptr);
  }
  rig.sim.RunUntil(kSecond);
  EXPECT_EQ(controller.secondary_cores(), 0);
  EXPECT_TRUE(*rig.machine->JobSuspended(rig.secondary));
  // Primary work ends; the secondary resumes.
  rig.sim.RunUntil(4 * kSecond);
  EXPECT_FALSE(*rig.machine->JobSuspended(rig.secondary));
  EXPECT_EQ(controller.secondary_cores(), 40);
}

}  // namespace
}  // namespace perfiso
