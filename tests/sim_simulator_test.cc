#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace perfiso {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.EventsExecuted(), 3u);
}

TEST(SimulatorTest, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilEmpty();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.RunUntilEmpty();
  SimTime fired_at = -1;
  sim.Schedule(50, [&] { fired_at = sim.Now(); });  // in the past
  sim.RunUntilEmpty();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilAdvancesClockPastLastEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(200, [&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(10, recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.RunUntilEmpty();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(SimulatorTest, CancelRemovesEventEagerly) {
  Simulator sim;
  int fired = 0;
  EventHandle keep = sim.Schedule(10, [&] { ++fired; });
  EventHandle cancel = sim.Schedule(20, [&] { fired += 100; });
  ASSERT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(sim.Pending(cancel));
  EXPECT_TRUE(sim.Cancel(cancel));
  EXPECT_EQ(sim.PendingEvents(), 1u);  // left the queue, did not become a no-op
  EXPECT_FALSE(sim.Pending(cancel));
  if constexpr (!kSimSanEnabled) {
    // Lenient contract only: SimSan turns a double-cancel into an abort.
    EXPECT_FALSE(sim.Cancel(cancel));  // idempotent on a stale handle
  }
  sim.RunUntilEmpty();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Pending(keep) == false);
  EXPECT_EQ(sim.stats().events_cancelled, 1u);
  EXPECT_EQ(sim.stats().events_executed, 1u);
}

TEST(SimulatorTest, CancelledCallbackIsDestroyedNotRun) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  EventHandle h = sim.Schedule(10, [token] { FAIL() << "cancelled event ran"; });
  token.reset();
  EXPECT_FALSE(alive.expired());  // the queued callback holds the capture
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_TRUE(alive.expired());  // cancel destroys the callback immediately
  sim.RunUntilEmpty();
}

TEST(SimulatorTest, HandlesGoStaleWhenTheEventFires) {
  Simulator sim;
  EventHandle h = sim.Schedule(5, [] {});
  EXPECT_TRUE(sim.Pending(h));
  sim.RunUntilEmpty();
  EXPECT_FALSE(sim.Pending(h));
  EXPECT_FALSE(sim.Cancel(h));
  EXPECT_FALSE(sim.Reschedule(h, 50));
  EXPECT_FALSE(sim.Cancel(EventHandle{}));  // default handle is inert
}

TEST(SimulatorTest, StaleHandleDoesNotCancelSlotReuse) {
  Simulator sim;
  std::vector<int> order;
  EventHandle first = sim.Schedule(10, [&] { order.push_back(1); });
  ASSERT_TRUE(sim.Cancel(first));
  // The freed slot is recycled for the next event; the stale handle must not
  // reach it.
  EventHandle second = sim.Schedule(20, [&] { order.push_back(2); });
  if constexpr (!kSimSanEnabled) {
    // Lenient contract only: SimSan aborts on a cancel through a handle
    // whose slot has been recycled (this is its headline catch).
    EXPECT_FALSE(sim.Cancel(first));
  }
  EXPECT_TRUE(sim.Pending(second));
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(SimulatorTest, RescheduleMovesTheEvent) {
  Simulator sim;
  std::vector<int> order;
  EventHandle h = sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Reschedule(h, 30));  // push back past the other event
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, RescheduleOrdersAsFreshDecisionAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  EventHandle h = sim.Schedule(5, [&] { order.push_back(1); });
  sim.Schedule(10, [&] { order.push_back(2); });
  sim.Reschedule(h, 10);  // same timestamp as event 2, but rescheduled later
  sim.RunUntilEmpty();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SimulatorTest, ClampedSchedulesAreCounted) {
  Simulator sim;
  sim.Schedule(100, [] {});
  sim.RunUntilEmpty();
  EXPECT_EQ(sim.stats().clamped_schedules, 0u);
  SimTime fired_at = -1;
  sim.Schedule(50, [&] { fired_at = sim.Now(); });  // in the past
  EXPECT_EQ(sim.stats().clamped_schedules, 1u);
  EventHandle h = sim.Schedule(200, [] {});
  sim.Reschedule(h, 10);  // reschedule into the past clamps too
  EXPECT_EQ(sim.stats().clamped_schedules, 2u);
  sim.RunUntilEmpty();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, LargeCallbacksFallBackToCountedHeapAllocation) {
  Simulator sim;
  uint64_t big[16] = {};  // 128-byte capture: above the inline buffer
  big[0] = 41;
  uint64_t got = 0;
  sim.Schedule(1, [big, &got] { got = big[0] + 1; });
  EXPECT_EQ(sim.stats().callback_heap_allocs, 1u);
  sim.Schedule(2, [&got] { ++got; });  // small captures stay inline
  EXPECT_EQ(sim.stats().callback_heap_allocs, 1u);
  sim.RunUntilEmpty();
  EXPECT_EQ(got, 43u);
}

TEST(SimulatorTest, EventCallbackMovesIntoTheRecordWithoutBoxing) {
  // A ready-made EventCallback (a PDES mailbox message) is itself larger than
  // the inline buffer it wraps; Schedule must move it in, not box it.
  Simulator sim;
  auto owner = std::make_shared<int>(7);
  uint64_t pad[5] = {1, 2, 3, 4, 5};  // 48-byte capture: a full-size callback
  uint64_t got = 0;
  EventCallback full = [pad, &got] { got += pad[4]; };
  EventCallback owning = [owner, &got] { got += static_cast<uint64_t>(*owner); };
  sim.Schedule(1, std::move(full));
  sim.ScheduleAfter(2, std::move(owning));
  EXPECT_EQ(sim.stats().callback_heap_allocs, 0u);
  EXPECT_EQ(owner.use_count(), 2);  // moved, not copied
  sim.RunUntilEmpty();
  EXPECT_EQ(got, 12u);
  EXPECT_EQ(owner.use_count(), 1);  // released when the event fired
}

TEST(SimulatorTest, PoolRecyclesSlotsWithoutGrowth) {
  Simulator sim;
  // Self-rescheduling chain: after the first slab, steady state allocates no
  // further slabs no matter how many events run.
  int remaining = 10000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) {
      sim.ScheduleAfter(10, tick);
    }
  };
  sim.Schedule(0, tick);
  sim.RunUntilEmpty();
  EXPECT_EQ(sim.stats().events_executed, 10000u);
  EXPECT_EQ(sim.stats().slab_allocs, 1u);
}

TEST(SimulatorTest, ManyEventsInterleavedCancelKeepOrder) {
  // Heap stress for the 4-ary sift paths: cancel every third event out of a
  // shuffled schedule and verify the survivors fire in (time, seq) order.
  Simulator sim;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 300; ++i) {
    const SimTime when = (i * 7919) % 101;  // scrambled times with collisions
    handles.push_back(sim.Schedule(when, [&fired, when, i] { fired.push_back({when, i}); }));
  }
  for (size_t i = 0; i < handles.size(); i += 3) {
    EXPECT_TRUE(sim.Cancel(handles[i]));
  }
  sim.RunUntilEmpty();
  EXPECT_EQ(fired.size(), 200u);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // FIFO within a timestamp
    }
  }
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(&sim, /*start=*/5, /*period=*/10, [&](SimTime now) { fires.push_back(now); });
  sim.RunUntil(36);
  EXPECT_EQ(fires, (std::vector<SimTime>{5, 15, 25, 35}));
  task.Cancel();
  sim.RunUntil(100);
  EXPECT_EQ(fires.size(), 4u);
}

TEST(PeriodicTaskTest, CancelFromWithinTick) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(&sim, 0, 10, [&](SimTime) {
    if (++count == 3) {
      task.Cancel();
    }
  });
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

// Regression (event-engine overhaul): a cancelled task's already-armed event
// must leave the queue eagerly instead of staying behind to fire as a dead
// no-op. Observable as PendingEvents() dropping at Cancel() time.
TEST(PeriodicTaskTest, CancelRemovesArmedEventFromQueue) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, /*start=*/5, /*period=*/10, [&](SimTime) { ++ticks; });
  sim.RunUntil(6);
  ASSERT_EQ(ticks, 1);
  ASSERT_EQ(sim.PendingEvents(), 1u);  // the next tick is armed
  task.Cancel();
  EXPECT_EQ(sim.PendingEvents(), 0u);  // removed eagerly, not left as a no-op
  EXPECT_TRUE(task.cancelled());
  sim.RunUntilEmpty();
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTaskTest, CancelFromWithinTickAlsoEmptiesQueue) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 0, 10, [&](SimTime) {
    if (++ticks == 2) {
      task.Cancel();
    }
  });
  sim.RunUntil(15);
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(sim.PendingEvents(), 0u);  // no re-arm, nothing left behind
}

TEST(PeriodicTaskTest, DestructionStopsFiring) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(&sim, 0, 10, [&](SimTime) { ++count; });
    sim.RunUntil(25);
  }
  sim.RunUntil(1000);
  EXPECT_EQ(count, 3);  // t=0, 10, 20
}

}  // namespace
}  // namespace perfiso
