// Micro-benchmarks for the mechanisms PerfIso relies on being cheap: the
// idle-core query, one controller poll, an affinity update, thread dispatch,
// and — since the event-engine overhaul — raw engine throughput. The paper's
// design requires "a low-latency, low-overhead means of obtaining CPU
// utilization information" (§3.1.1); the reproduction additionally requires
// the event engine itself to be off the critical path of every figure.
//
// The engine section compares the pooled/handle engine (src/sim/simulator.h)
// against LegacySimulator below — a faithful copy of the pre-overhaul engine
// (std::priority_queue of heap-allocated std::function events) kept in this
// binary as the recorded baseline. Heap allocations are counted via the
// global operator new replacement at the bottom of this file, so
// "allocations per event" is measured, not claimed.
//
// Results are recorded into BENCH_micro_overheads.json like every other
// bench. No external benchmark library is required.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <vector>

#include "bench/harness.h"
#include "src/perfiso/controller.h"
#include "src/platform/sim_platform.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/workload/bullies.h"

// Counted by the operator new/delete replacements at file scope below.
extern std::atomic<uint64_t> g_heap_allocs;

namespace perfiso {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Middle element of an odd-sized sample (the upper middle of an even one).
double Median(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

// --- The pre-overhaul event engine, verbatim ---------------------------------
//
// PR 1-3 shipped this engine: a binary priority_queue of events whose
// callbacks are std::function (heap-allocating for captures above the
// ~16-byte SSO), with no cancellation — dead events fire as no-ops. It is the
// in-binary baseline for the speedup row.
class LegacySimulator {
 public:
  using EventFn = std::function<void()>;

  SimTime Now() const { return now_; }

  void Schedule(SimTime when, EventFn fn) {
    if (when < now_) {
      when = now_;
    }
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }
  void ScheduleAfter(SimDuration delay, EventFn fn) { Schedule(now_ + delay, std::move(fn)); }

  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = event.time;
    event.fn();
    return true;
  }

  void RunUntilEmpty() {
    while (Step()) {
    }
  }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    EventFn fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
};

// --- Engine throughput -------------------------------------------------------
//
// The workload is the shape every layer of this repo produces: each unit of
// work fires, arms a timeout guard far in the future (a hedge timer, a slice
// preemption, an I/O deadline), and schedules the next unit; when the work
// completes — long before the guard — the guard is obsolete.
//
//   * The pooled engine cancels the guard, which leaves the queue eagerly.
//   * The legacy engine cannot cancel: the guard stays queued for its full
//     delay and eventually fires as a generation-checked no-op (the exact
//     pre-overhaul SimMachine / PeriodicTask / hedge-timer pattern). At
//     steady state that doubles the events executed and inflates the heap to
//     guard_timeout/work_period entries per chain, so every push/pop pays a
//     much deeper sift plus one std::function heap allocation per event.
//
// Throughput is reported in *useful* (work) events per second, wall-clocked
// over the steady state.

constexpr SimDuration kWorkPeriod = 1000;          // 1 us between work items per chain
constexpr SimDuration kGuardTimeout = 10'000'000;  // 10 ms guard — the hedge delay (§2)

struct EngineScore {
  double useful_events_per_sec = 0;
  double allocs_per_event = 0;  // steady state, after the pool is warm
  uint64_t dead_fires = 0;      // guards that fired as no-ops
};

// Guard bodies: sized like real callbacks (above std::function's ~16-byte
// inline buffer, inside EventCallback::kInlineBytes).
struct PooledGuard {
  uint64_t* dead;
  uint64_t pad[3];
  void operator()() const { ++*dead; }
};

struct PooledWork {
  Simulator* sim;
  uint64_t* fired;
  uint64_t* dead;
  // Armed when this work item was scheduled; operator() below cancels it, so
  // the lifecycle lives with the scheduled callback, not a destructor.
  EventHandle guard;  // NOLINT(perfiso-LIFE-001)
  void operator()() const {
    ++*fired;
    sim->Cancel(guard);  // work beat its timeout: the guard leaves the queue
    const EventHandle next_guard =
        sim->ScheduleAfter(kGuardTimeout, PooledGuard{dead, {}});
    sim->ScheduleAfter(kWorkPeriod, PooledWork{sim, fired, dead, next_guard});
  }
};

struct LegacyGuard {
  const uint64_t* chain_gen;
  uint64_t gen;
  uint64_t* dead;
  void operator()() const {
    if (*chain_gen == gen) {  // never true: the work always completes first
      return;
    }
    ++*dead;  // dead no-op fire
  }
};

struct LegacyWork {
  LegacySimulator* sim;
  uint64_t* fired;
  uint64_t* chain_gen;
  uint64_t* dead;
  void operator()() const {
    ++*fired;
    ++*chain_gen;  // invalidate the outstanding guard (the gen-counter trick)
    sim->ScheduleAfter(kGuardTimeout, LegacyGuard{chain_gen, *chain_gen, dead});
    sim->ScheduleAfter(kWorkPeriod, *this);
  }
};

// Shared measurement loop: `sim` already has `chains` work chains scheduled;
// steps until `fired` crosses the warmup mark, then wall-clocks the next
// `measured_fires` useful events.
template <typename Sim>
EngineScore MeasureSteadyState(Sim& sim, const uint64_t& fired, const uint64_t& dead,
                               uint64_t warmup_fires, uint64_t measured_fires) {
  while (fired < warmup_fires) {
    sim.Step();
  }
  const uint64_t dead_before = dead;
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  const uint64_t target = warmup_fires + measured_fires;
  while (fired < target) {
    sim.Step();
  }
  const double elapsed = SecondsSince(start);
  const uint64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);

  EngineScore score;
  score.useful_events_per_sec = static_cast<double>(measured_fires) / elapsed;
  score.allocs_per_event = static_cast<double>(allocs_after - allocs_before) /
                           static_cast<double>(measured_fires);
  score.dead_fires = dead - dead_before;
  return score;
}

EngineScore MeasurePooledEngine(int chains, uint64_t warmup_fires, uint64_t measured_fires) {
  Simulator sim;
  uint64_t fired = 0;
  uint64_t dead = 0;
  for (int i = 0; i < chains; ++i) {
    const EventHandle guard =
        sim.Schedule(i + kGuardTimeout, PooledGuard{&dead, {}});
    sim.Schedule(i, PooledWork{&sim, &fired, &dead, guard});
  }
  return MeasureSteadyState(sim, fired, dead, warmup_fires, measured_fires);
}

EngineScore MeasureLegacyEngine(int chains, uint64_t warmup_fires, uint64_t measured_fires) {
  LegacySimulator sim;
  uint64_t fired = 0;
  uint64_t dead = 0;
  std::vector<uint64_t> gens(static_cast<size_t>(chains), 0);
  for (int i = 0; i < chains; ++i) {
    sim.Schedule(i, LegacyWork{&sim, &fired, &gens[static_cast<size_t>(i)], &dead});
  }
  return MeasureSteadyState(sim, fired, dead, warmup_fires, measured_fires);
}

// Schedule/Cancel churn (no legacy counterpart: the old engine could not
// cancel at all — dead events fired as no-ops).
double MeasureCancelThroughput(int batch, int rounds) {
  Simulator sim;
  uint64_t sink = 0;
  std::vector<EventHandle> handles(static_cast<size_t>(batch));
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<size_t>(i)] = sim.ScheduleAfter(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < batch; ++i) {
      sim.Cancel(handles[static_cast<size_t>(i)]);
    }
  }
  const double elapsed = SecondsSince(start);
  if (sink != 0) {
    std::abort();  // every event must have been cancelled before firing
  }
  return static_cast<double>(batch) * rounds / elapsed;  // schedule+cancel pairs/sec
}

// --- PerfIso control-plane micro costs ---------------------------------------

struct ControllerRig {
  Simulator sim;
  MachineSpec spec;
  std::unique_ptr<SimMachine> machine;
  std::unique_ptr<SimPlatform> platform;
  std::unique_ptr<CpuBully> bully;
  std::unique_ptr<PerfIsoController> controller;

  ControllerRig() {
    machine = std::make_unique<SimMachine>(&sim, spec, "m0");
    platform = std::make_unique<SimPlatform>(machine.get(), nullptr);
    const JobId job = machine->CreateJob("secondary");
    platform->AddSecondaryJob(job);
    bully = std::make_unique<CpuBully>(machine.get(), job, 48);
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    controller = std::make_unique<PerfIsoController>(platform.get(), config);
    if (!controller->Initialize().ok()) {
      std::abort();
    }
  }
};

// Nanoseconds per call of `op`, amortized over enough iterations to be
// readable on a shared CI core.
template <typename Op>
double MeasureNsPerOp(int iterations, Op&& op) {
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    op(i);
  }
  return SecondsSince(start) * 1e9 / iterations;
}

}  // namespace
}  // namespace perfiso

int main() {
  using namespace perfiso;
  using namespace perfiso::bench;

  StartReport("micro_overheads");
  PrintHeader("Micro-overheads", "engine + control plane",
              "pooled event engine vs. the legacy std::function/priority_queue baseline, "
              "plus the cheap-syscall costs of §3.1.1");

  // Engine throughput: 32 concurrent work chains, each arming a timeout
  // guard per work item (the hedge/slice/deadline shape every layer emits).
  // Warmup runs past the guard horizon so the legacy engine is measured at
  // its steady state: guard_timeout/work_period queued dead events per chain.
  //
  // One run's rate swings by about as much as the regression guard's 15%
  // bound on a shared machine, so each engine (and the cancel churn) is
  // measured kEngineReps times, interleaved, and the medians are reported.
  const int kChains = 32;
  const uint64_t kWarmup = 2 * kChains * static_cast<uint64_t>(kGuardTimeout / kWorkPeriod);
  const auto kMeasured = static_cast<uint64_t>(500'000 * BenchScale());
  const int kCancelRounds = static_cast<int>(200 * BenchScale());
  constexpr int kEngineReps = 5;

  std::vector<double> legacy_rates;
  std::vector<double> pooled_rates;
  std::vector<double> cancel_rates;
  EngineScore legacy;
  EngineScore pooled;
  for (int rep = 0; rep < kEngineReps; ++rep) {
    legacy = MeasureLegacyEngine(kChains, kWarmup, kMeasured);
    pooled = MeasurePooledEngine(kChains, kWarmup, kMeasured);
    legacy_rates.push_back(legacy.useful_events_per_sec);
    pooled_rates.push_back(pooled.useful_events_per_sec);
    cancel_rates.push_back(MeasureCancelThroughput(1024, kCancelRounds));
  }
  // Allocation and dead-fire counts are deterministic; the last repetition's
  // stand for all of them.
  legacy.useful_events_per_sec = Median(legacy_rates);
  pooled.useful_events_per_sec = Median(pooled_rates);
  const double cancel_pairs = Median(cancel_rates);
  const double speedup = pooled.useful_events_per_sec / legacy.useful_events_per_sec;

  std::printf("engine throughput (%d chains, 1 timeout guard per work item; median of %d):\n",
              kChains, kEngineReps);
  std::printf("  legacy  %10.2f M useful events/s   %5.2f heap allocs/event   %8llu dead fires\n",
              legacy.useful_events_per_sec / 1e6, legacy.allocs_per_event,
              static_cast<unsigned long long>(legacy.dead_fires));
  std::printf("  pooled  %10.2f M useful events/s   %5.2f heap allocs/event   %8llu dead fires\n",
              pooled.useful_events_per_sec / 1e6, pooled.allocs_per_event,
              static_cast<unsigned long long>(pooled.dead_fires));
  std::printf("  speedup %9.2fx   (acceptance floor: 5x)\n", speedup);
  std::printf("  schedule+cancel %6.2f M pairs/s (legacy: not cancellable)\n",
              cancel_pairs / 1e6);
  if (speedup < 5.0) {
    std::printf("  WARNING: speedup below the 5x floor on this machine\n");
  }
  ReportRow("engine_throughput",
            {
                {"pooled_events_per_sec", pooled.useful_events_per_sec},
                {"legacy_events_per_sec", legacy.useful_events_per_sec},
                {"speedup", speedup},
                {"pooled_allocs_per_event_steady", pooled.allocs_per_event},
                {"legacy_allocs_per_event", legacy.allocs_per_event},
                {"pooled_dead_fires", static_cast<double>(pooled.dead_fires)},
                {"legacy_dead_fires", static_cast<double>(legacy.dead_fires)},
                {"cancel_pairs_per_sec", cancel_pairs},
            });

  // Control-plane costs (the "syscalls" the controller's tight loop issues).
  const int kIters = static_cast<int>(200'000 * BenchScale());
  double idle_ns;
  double poll_ns;
  double affinity_ns;
  {
    ControllerRig rig;
    volatile int sink = 0;
    idle_ns = MeasureNsPerOp(kIters, [&](int) { sink = rig.platform->IdleCores().Count(); });
    poll_ns = MeasureNsPerOp(kIters, [&](int) { rig.controller->Poll(); });
    affinity_ns = MeasureNsPerOp(kIters / 10, [&](int i) {
      const int cores = (i & 1) != 0 ? 16 : 8;  // force a real update every call
      (void)rig.platform->SetSecondaryAffinity(CpuSet::Range(48 - cores, 48));
    });
  }
  double dispatch_ns;
  {
    // Cost of one thread spawn+dispatch+completion round trip in the machine.
    Simulator sim;
    MachineSpec spec;
    spec.context_switch = 0;
    SimMachine machine(&sim, spec, "m0");
    dispatch_ns = MeasureNsPerOp(kIters / 10, [&](int) {
      machine.SpawnThread(TenantClass::kPrimary, JobId{}, 1000, nullptr);
      sim.RunUntilEmpty();
    });
  }

  std::printf("control plane:\n");
  std::printf("  idle-core query    %8.1f ns\n", idle_ns);
  std::printf("  controller poll    %8.1f ns\n", poll_ns);
  std::printf("  affinity update    %8.1f ns\n", affinity_ns);
  std::printf("  thread round trip  %8.1f ns\n", dispatch_ns);
  ReportRow("control_plane", {
                                 {"idle_query_ns", idle_ns},
                                 {"controller_poll_ns", poll_ns},
                                 {"affinity_update_ns", affinity_ns},
                                 {"thread_round_trip_ns", dispatch_ns},
                             });
  return 0;
}

// --- Allocation counting -----------------------------------------------------
//
// Replacing the global allocation functions lets the engine section report
// measured allocations per event. Counting is relaxed-atomic; the replacement
// otherwise forwards to malloc/free.
std::atomic<uint64_t> g_heap_allocs{0};

namespace {
void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
