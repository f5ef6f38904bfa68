#include "src/disk/disk.h"

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace perfiso {
namespace {

TEST(DiskDeviceTest, ServiceTimeComposition) {
  Simulator sim;
  DiskSpec spec;
  spec.read_latency = FromMicros(100);
  spec.write_latency = FromMicros(50);
  spec.seek_penalty = FromMillis(5);
  spec.bandwidth_bps = 1e9;  // 1 GB/s -> 64 KB transfers in 65.536 us
  spec.concurrency = 1;
  DiskDevice device(&sim, spec, "d0");

  IoRequest sequential_read;
  sequential_read.op = IoOp::kRead;
  sequential_read.bytes = 64 * 1024;
  sequential_read.sequential = true;
  EXPECT_EQ(device.ServiceTime(sequential_read), FromMicros(100) + 65536);

  IoRequest random_write;  // requests are move-only (they own a callback)
  random_write.op = IoOp::kWrite;
  random_write.bytes = sequential_read.bytes;
  random_write.sequential = false;
  EXPECT_EQ(device.ServiceTime(random_write), FromMicros(50) + FromMillis(5) + 65536);
}

TEST(DiskDeviceTest, CompletionCallbackAtServiceTime) {
  Simulator sim;
  DiskSpec spec = DiskSpec::Ssd();
  DiskDevice device(&sim, spec, "d0");
  IoRequest request;
  request.op = IoOp::kRead;
  request.bytes = 4096;
  request.sequential = false;
  SimTime done_at = -1;
  request.on_complete = [&](SimTime now) { done_at = now; };
  device.Submit(std::move(request));
  sim.RunUntilEmpty();
  EXPECT_EQ(done_at, device.ServiceTime(IoRequest{0, IoOp::kRead, 4096, false, nullptr, 0}));
  EXPECT_EQ(device.CompletedOps(), 1);
  EXPECT_EQ(device.CompletedBytes(), 4096);
}

TEST(DiskDeviceTest, ConcurrencyLimitQueues) {
  Simulator sim;
  DiskSpec spec;
  spec.read_latency = FromMillis(1);
  spec.write_latency = FromMillis(1);
  spec.seek_penalty = 0;
  spec.bandwidth_bps = 1e12;  // transfer time negligible
  spec.concurrency = 2;
  DiskDevice device(&sim, spec, "d0");
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    IoRequest request;
    request.bytes = 1;
    request.on_complete = [&](SimTime now) { completions.push_back(now); };
    device.Submit(std::move(request));
  }
  EXPECT_EQ(device.QueueDepth(), 4u);
  sim.RunUntilEmpty();
  ASSERT_EQ(completions.size(), 4u);
  // Two waves of two: ~1 ms and ~2 ms.
  EXPECT_EQ(completions[0], completions[1]);
  EXPECT_EQ(completions[2], completions[3]);
  EXPECT_EQ(completions[2], 2 * completions[0]);
}

// Device-reset model on handle-based completions: cancelled in-flight I/O
// leaves the simulator queue eagerly (no dead completion events), callbacks
// never run, and the device keeps working afterwards.
TEST(DiskDeviceTest, CancelAllDropsInflightAndQueuedRequests) {
  Simulator sim;
  DiskSpec spec = DiskSpec::Ssd();
  spec.concurrency = 2;
  DiskDevice device(&sim, spec, "d0");

  int completions = 0;
  for (int i = 0; i < 5; ++i) {  // 2 in flight + 3 queued
    IoRequest request;
    request.bytes = 4096;
    request.on_complete = [&completions](SimTime) { ++completions; };
    device.Submit(std::move(request));
  }
  ASSERT_EQ(device.QueueDepth(), 5u);
  ASSERT_EQ(sim.PendingEvents(), 2u);  // one completion event per in-flight op

  EXPECT_EQ(device.CancelAll(), 5);
  EXPECT_EQ(sim.PendingEvents(), 0u);  // completions left the queue eagerly
  EXPECT_EQ(device.QueueDepth(), 0u);
  // Nothing was served (cancelled at the dispatch instant), so the service
  // time charged up front must be rolled back in full.
  EXPECT_EQ(device.BusyTime(), 0);
  sim.RunUntilEmpty();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(device.CompletedOps(), 0);

  // The device still serves new work after the reset.
  IoRequest after;
  after.bytes = 4096;
  after.on_complete = [&completions](SimTime) { ++completions; };
  device.Submit(std::move(after));
  sim.RunUntilEmpty();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(device.CompletedOps(), 1);
}

TEST(StripedVolumeTest, CancelAllResetsEveryDrive) {
  Simulator sim;
  StripedVolume volume(&sim, DiskSpec::Hdd(), 4, "hdd");
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    IoRequest request;
    request.bytes = 4096;
    request.on_complete = [&completions](SimTime) { ++completions; };
    volume.Submit(std::move(request));
  }
  EXPECT_EQ(volume.CancelAll(), 8);
  sim.RunUntilEmpty();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(volume.TotalQueueDepth(), 0u);
}

TEST(DiskDeviceTest, HddSlowerThanSsdForRandomReads) {
  Simulator sim;
  DiskDevice ssd(&sim, DiskSpec::Ssd(), "ssd");
  DiskDevice hdd(&sim, DiskSpec::Hdd(), "hdd");
  IoRequest random_read{0, IoOp::kRead, 8192, false, nullptr, 0};
  EXPECT_GT(hdd.ServiceTime(random_read), 10 * ssd.ServiceTime(random_read));
}

TEST(StripedVolumeTest, RoundRobinAcrossDrives) {
  Simulator sim;
  DiskSpec spec = DiskSpec::Ssd();
  spec.concurrency = 1;
  StripedVolume volume(&sim, spec, 4, "vol");
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    IoRequest request;
    request.bytes = 4096;
    request.on_complete = [&](SimTime) { ++completed; };
    volume.Submit(std::move(request));
  }
  // All four go to distinct drives, so all complete at the same instant.
  sim.RunUntilEmpty();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(volume.CompletedOps(), 4);
}

TEST(StripedVolumeTest, PerOwnerStats) {
  Simulator sim;
  StripedVolume volume(&sim, DiskSpec::Ssd(), 2, "vol");
  for (int i = 0; i < 6; ++i) {
    IoRequest request;
    request.owner = i % 2 == 0 ? 10 : 20;
    request.bytes = 1024;
    volume.Submit(std::move(request));
  }
  sim.RunUntilEmpty();
  EXPECT_EQ(volume.OwnerStats(10).ops, 3);
  EXPECT_EQ(volume.OwnerStats(20).ops, 3);
  EXPECT_EQ(volume.OwnerStats(10).bytes, 3 * 1024);
  EXPECT_EQ(volume.OwnerStats(99).ops, 0);
  EXPECT_GT(volume.OwnerStats(10).latency_us.Mean(), 0);
}

TEST(StripedVolumeTest, NominalBandwidthScalesWithDrives) {
  Simulator sim;
  StripedVolume volume(&sim, DiskSpec::Hdd(), 4, "vol");
  EXPECT_DOUBLE_EQ(volume.NominalBandwidth(), 4 * DiskSpec::Hdd().bandwidth_bps);
}

}  // namespace
}  // namespace perfiso
