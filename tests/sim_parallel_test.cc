// ParallelSimulation: conservative time-windowed lockstep over Simulator
// partitions (src/sim/parallel.h).
//
// The determinism contract under test: a run's observable results are a pure
// function of (inputs, partition count) — bit-identical for every worker
// thread count. The SimSan-relevant cases (cancel/reschedule of handles
// minted by mailbox-delivered callbacks) run here in every build and trip
// SimSan's diagnostics when compiled with -DPERFISO_SIMSAN=ON.
#include "src/sim/parallel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/rng.h"
#include "src/util/stats.h"

namespace perfiso {
namespace {

constexpr SimDuration kWindow = FromMicros(120);

TEST(ParallelSimulationTest, SinglePartitionIsPlainSequential) {
  // partitions == 1 must behave exactly like a lone Simulator: no windows,
  // no mailboxes, same clock semantics.
  ParallelSimulation psim({/*partitions=*/1, /*window=*/0, /*threads=*/4});
  EXPECT_EQ(psim.num_partitions(), 1);
  std::vector<int> order;
  psim.sim(0).Schedule(20, [&] { order.push_back(2); });
  psim.sim(0).Schedule(10, [&] { order.push_back(1); });
  psim.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(psim.sim(0).Now(), 100);
  EXPECT_EQ(psim.stats().windows_run, 0u);
}

TEST(ParallelSimulationTest, CrossPartitionMessageDeliversAtItsTimestamp) {
  ParallelSimulation psim({/*partitions=*/2, kWindow, /*threads=*/1});
  SimTime delivered_at = -1;
  // Partition 0 posts to partition 1 mid-run with one window of lookahead.
  psim.sim(0).Schedule(1000, [&] {
    const SimTime deliver = psim.sim(0).Now() + kWindow;
    psim.Post(1, deliver, [&psim, &delivered_at] { delivered_at = psim.sim(1).Now(); });
  });
  psim.RunUntil(kSecond);
  EXPECT_EQ(delivered_at, 1000 + kWindow);
  EXPECT_EQ(psim.stats().messages_posted, 1u);
  EXPECT_EQ(psim.sim(0).Now(), kSecond);
  EXPECT_EQ(psim.sim(1).Now(), kSecond);
}

TEST(ParallelSimulationTest, SetupPostsScheduleDirectly) {
  ParallelSimulation psim({/*partitions=*/2, kWindow, /*threads=*/1});
  bool ran = false;
  psim.Post(1, 500, [&] { ran = true; });  // outside any window
  EXPECT_EQ(psim.stats().setup_posts, 1u);
  psim.RunUntil(1000);
  EXPECT_TRUE(ran);
}

TEST(ParallelSimulationTest, UndeliveredMessagesAreReleasedOnceOnDestruction) {
  // A mailbox message owns its callback: a message that never fires (posted
  // mid-window, merged at the barrier, due after the run ends; or posted at
  // setup past the end) is destroyed with the ParallelSimulation, releasing
  // its captures exactly once.
  auto sentinel = std::make_shared<int>(0);
  {
    ParallelSimulation psim({/*partitions=*/3, kWindow, /*threads=*/2});
    psim.Post(2, 10 * kSecond, [sentinel] { ++*sentinel; });
    psim.sim(0).Schedule(1000, [&psim, sentinel] {
      psim.Post(1, psim.sim(0).Now() + kSecond, [sentinel] { ++*sentinel; });
    });
    psim.RunUntil(FromMillis(1));
    EXPECT_EQ(psim.stats().messages_posted, 1u);
    EXPECT_EQ(psim.stats().setup_posts, 1u);
    EXPECT_EQ(sentinel.use_count(), 3);  // one capture per undelivered message
  }
  EXPECT_EQ(*sentinel, 0);
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ParallelSimulationTest, SkipAheadCrossesIdleSpans) {
  // Two events a full simulated second apart: the lockstep loop must not
  // grind through ~8000 empty 120 us windows between them.
  ParallelSimulation psim({/*partitions=*/2, kWindow, /*threads=*/1});
  int fired = 0;
  psim.sim(0).Schedule(10, [&] { ++fired; });
  psim.sim(1).Schedule(kSecond, [&] { ++fired; });
  psim.RunUntil(2 * kSecond);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(psim.stats().windows_run, 4u);
}

// Deterministic ping-pong workload: queries bounce between partition 0
// (client/TLA side) and partitions 1..K-1 (rows), with per-partition local
// timer churn layered on top. Returns an order-sensitive digest.
uint64_t RunPingPong(int partitions, int threads) {
  ParallelSimulation psim({partitions, kWindow, threads});
  LatencyRecorder latency;
  Rng rng(99);
  // Local churn on every partition: timers that also exercise cancel traffic
  // inside each partition's own window.
  std::vector<uint64_t> churn(static_cast<size_t>(partitions), 0);
  for (int p = 0; p < partitions; ++p) {
    Simulator& sim = psim.sim(p);
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(FromMicros(17) * i, [&sim, &churn, p] {
        ++churn[static_cast<size_t>(p)];
        EventHandle doomed = sim.ScheduleAfter(FromMicros(5), [] {});
        sim.Cancel(doomed);
      });
    }
  }
  // 200 queries from partition 0: hop to a row partition, "serve" for a
  // deterministic service time, hop back, record end-to-end latency.
  for (int q = 0; q < 200; ++q) {
    const SimTime submit = FromMicros(30) * q;
    const int target = partitions == 1 ? 0 : 1 + static_cast<int>(rng.Next() %
                                                static_cast<uint64_t>(partitions - 1));
    psim.sim(0).Schedule(submit, [&psim, &latency, submit, target] {
      const SimTime hop = psim.sim(0).Now() + kWindow;
      psim.Post(target, hop, [&psim, &latency, submit, target] {
        Simulator& row = psim.sim(target);
        const SimDuration service = FromMicros(40 + (submit % 7) * 11);
        row.ScheduleAfter(service, [&psim, &latency, submit, target, &row] {
          const SimTime back = row.Now() + kWindow;
          psim.Post(0, back, [&psim, &latency, submit] {
            latency.Add(ToMillis(psim.sim(0).Now() - submit));
          });
        });
      });
    });
  }
  psim.RunUntil(kSecond);
  return latency.Digest() ^ (latency.Count() << 1);
}

TEST(ParallelSimulationTest, DigestsIdenticalAcrossThreadCounts) {
  const uint64_t t1 = RunPingPong(/*partitions=*/4, /*threads=*/1);
  const uint64_t t2 = RunPingPong(/*partitions=*/4, /*threads=*/2);
  const uint64_t t4 = RunPingPong(/*partitions=*/4, /*threads=*/4);
  const uint64_t t8 = RunPingPong(/*partitions=*/4, /*threads=*/8);  // capped to 4
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t8);
  // Repeat runs are bit-identical too (no hidden run-to-run state).
  EXPECT_EQ(t1, RunPingPong(4, 1));
  EXPECT_EQ(t2, RunPingPong(4, 2));
}

TEST(ParallelSimulationTest, MailboxMergeOrdersByTimeSourceThenPostingOrder) {
  // Three sources post same-timestamp messages to one destination across the
  // same window; the merged callbacks must run ordered by (deliver, src,
  // posting order) regardless of thread count.
  for (int threads : {1, 2, 4}) {
    ParallelSimulation psim({/*partitions=*/4, kWindow, threads});
    std::vector<int> order;
    const SimTime deliver = kWindow * 2;  // window end for posts made in [W, 2W)
    for (int src = 1; src <= 3; ++src) {
      psim.sim(src).Schedule(kWindow + src, [&psim, &order, src, deliver] {
        psim.Post(0, deliver, [&order, src] { order.push_back(src * 10); });
        psim.Post(0, deliver, [&order, src] { order.push_back(src * 10 + 1); });
      });
    }
    psim.RunUntil(kWindow * 3);
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30, 31})) << "threads=" << threads;
  }
}

// --- Handle lifetime across the mailbox boundary (SimSan coverage) ----------

TEST(ParallelSimulationTest, CancelAndRescheduleOfMailboxMintedHandles) {
  // A mailbox-delivered callback schedules work on its destination; a LATER
  // mailbox delivery to the same partition cancels or reschedules it through
  // the stored handle. Handles never cross partitions (they are meaningless
  // in another Simulator); what crosses is the instruction to cancel. Under
  // -DPERFISO_SIMSAN=ON the engine validates every one of these transitions.
  for (int threads : {1, 2}) {
    ParallelSimulation psim({/*partitions=*/2, kWindow, threads});
    struct RowState {
      // The test body owns the lifecycle: `work` is CancelOwned()'d below,
      // before RowState goes out of scope.
      // NOLINTNEXTLINE(perfiso-LIFE-001)
      EventHandle work;
      bool work_fired = false;
      bool moved_fired = false;
    };
    RowState state;
    // Window 0: partition 0 tells partition 1 to arm two far-out events.
    psim.sim(0).Schedule(10, [&psim, &state] {
      psim.Post(1, psim.sim(0).Now() + kWindow, [&psim, &state] {
        Simulator& row = psim.sim(1);
        state.work = row.ScheduleAfter(50 * kWindow, [&state] { state.work_fired = true; });
      });
    });
    // A later window: cancel the armed event through its handle, then arm a
    // replacement and reschedule it forward — all driven cross-partition.
    psim.sim(0).Schedule(10 + 2 * kWindow, [&psim, &state] {
      psim.Post(1, psim.sim(0).Now() + kWindow, [&psim, &state] {
        Simulator& row = psim.sim(1);
        EXPECT_TRUE(row.CancelOwned(state.work));
        EventHandle moved = row.ScheduleAfter(40 * kWindow, [&state] { state.moved_fired = true; });
        EXPECT_TRUE(row.Reschedule(moved, row.Now() + 2 * kWindow));
      });
    });
    psim.RunUntil(100 * kWindow);
    EXPECT_FALSE(state.work_fired) << "threads=" << threads;
    EXPECT_TRUE(state.moved_fired) << "threads=" << threads;
    psim.sim(0).CheckEngineInvariants();
    psim.sim(1).CheckEngineInvariants();
  }
}

TEST(ParallelSimulationTest, RepeatedRunUntilSegmentsMatchOneShot) {
  // warmup/measure style: RunUntil in two segments must equal one RunUntil
  // over the whole span (the harness pattern: run warmup, reset stats at the
  // barrier, run measurement).
  auto run = [](bool split) {
    ParallelSimulation psim({/*partitions=*/3, kWindow, /*threads=*/2});
    LatencyRecorder rec;
    for (int q = 0; q < 60; ++q) {
      const SimTime submit = FromMicros(100) * q;
      const int target = 1 + (q % 2);
      psim.sim(0).Schedule(submit, [&psim, &rec, submit, target] {
        psim.Post(target, psim.sim(0).Now() + kWindow, [&psim, &rec, submit, target] {
          psim.sim(target).ScheduleAfter(FromMicros(30), [&psim, &rec, submit, target] {
            psim.Post(0, psim.sim(target).Now() + kWindow, [&psim, &rec, submit] {
              rec.Add(ToMillis(psim.sim(0).Now() - submit));
            });
          });
        });
      });
    }
    if (split) {
      psim.RunUntil(FromMicros(3000));
      psim.RunUntil(FromMicros(20000));
    } else {
      psim.RunUntil(FromMicros(20000));
    }
    return rec.Digest();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace perfiso
