#include "src/sim/machine.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace perfiso {

namespace {
// Window for the "threads ready per 5 us" burstiness metric (§1).
constexpr SimDuration kBurstWindow = 5 * kMicrosecond;

// Folds one dispatch into Metrics::dispatch_digest (FNV-1a style, one
// 64-bit word per field).
uint64_t MixDispatch(uint64_t digest, SimTime now, int core, int tid) {
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  for (const uint64_t field :
       {static_cast<uint64_t>(now), static_cast<uint64_t>(core), static_cast<uint64_t>(tid)}) {
    digest = (digest ^ field) * kPrime;
  }
  return digest;
}
}  // namespace

SimMachine::SimMachine(Simulator* sim, const MachineSpec& spec, std::string name)
    : sim_(sim), spec_(spec), name_(std::move(name)) {
  assert(spec_.num_cores > 0 && spec_.num_cores <= CpuSet::kMaxCpus);
  assert(spec_.quantum > 0 && spec_.throttle_interval > 0);
  all_cores_ = CpuSet::FirstN(spec_.num_cores);
  cores_.resize(static_cast<size_t>(spec_.num_cores));
  idle_mask_ = all_cores_;
  threads_.reserve(256);
}

// --- Job objects -------------------------------------------------------------

Status SimMachine::CheckJob(JobId job_id) const {
  if (!job_id.valid() || job_id.value >= static_cast<int>(jobs_.size())) {
    return InvalidArgumentError("no such job");
  }
  return OkStatus();
}

JobId SimMachine::CreateJob(const std::string& job_name) {
  Job job;
  job.name = job_name;
  job.live = true;
  job.affinity = all_cores_;
  jobs_.push_back(std::move(job));
  return JobId{static_cast<int>(jobs_.size()) - 1};
}

Status SimMachine::SetJobAffinity(JobId job_id, const CpuSet& mask) {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (!job.live) {
    return FailedPreconditionError("job is dead: " + job.name);
  }
  const CpuSet effective = mask & all_cores_;
  if (effective.Empty()) {
    return InvalidArgumentError("job affinity mask has no valid cores");
  }
  if (effective == job.affinity) {
    return OkStatus();
  }
  job.affinity = effective;

  // Preempt running threads that are now on disallowed cores, and pull queued
  // threads off disallowed cores' queues; both get re-placed afterwards.
  std::vector<int> displaced;
  std::vector<int> freed_cores;
  for (int tid : job.threads) {
    Thread& t = threads_[static_cast<size_t>(tid)];
    const CpuSet& eff = EffectiveAffinity(t);
    if (t.state == Thread::State::kRunning && !eff.Test(t.core)) {
      // Unlike the other preemptions, this one leaves ready_since where it
      // was. Work stealing orders by it, so the quirk is kept as is.
      freed_cores.push_back(Preempt(t));
      t.core = -1;
      displaced.push_back(tid);
    } else if (t.state == Thread::State::kReady && t.queued && !eff.Test(t.core)) {
      RemoveFromQueue(t, tid);
      displaced.push_back(tid);
    }
  }
  for (int core : freed_cores) {
    idle_mask_.Set(core);
  }
  for (int tid : displaced) {
    MakeReady(tid);
  }
  for (int core : freed_cores) {
    RefillCore(core);
  }
  // If the mask grew, idle cores inside it may now be able to serve queued
  // threads of this job (via stealing in DispatchNext).
  KickIdleCores(effective);
  return OkStatus();
}

StatusOr<CpuSet> SimMachine::JobAffinity(JobId job_id) const {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  return jobs_[static_cast<size_t>(job_id.value)].affinity;
}

Status SimMachine::SetJobCpuRateCap(JobId job_id, double fraction) {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  if (fraction > 1.0) {
    return InvalidArgumentError("rate cap must be <= 1.0");
  }
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  job.rate_cap = fraction;
  if (fraction <= 0) {
    sim_->CancelOwned(job.exhaust_event);  // uncapped: a pending budget check is moot
    if (job.throttled) {
      UnthrottleJob(job_id.value);
    }
  } else {
    // Threads may already be running (dispatched uncapped); arm the budget
    // check now so the cap takes effect within this accounting interval.
    ScheduleExhaustCheck(job_id.value);
  }
  return OkStatus();
}

Status SimMachine::KillJob(JobId job_id) {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  const std::vector<int> victims = job.threads;  // KillThread mutates the list
  for (int tid : victims) {
    (void)KillThread(ThreadId{tid});
  }
  used_memory_bytes_ -= job.memory_bytes;
  job.memory_bytes = 0;
  job.live = false;
  sim_->CancelOwned(job.exhaust_event);
  sim_->CancelOwned(job.unthrottle_event);
  return OkStatus();
}

StatusOr<SimDuration> SimMachine::JobCpuTime(JobId job_id) const {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  // Include the in-flight portion of currently-running slices so progress
  // reads are exact at any instant.
  const Job& job = jobs_[static_cast<size_t>(job_id.value)];
  return job.cpu_time + InflightWork(job);
}

StatusOr<int> SimMachine::JobLiveThreads(JobId job_id) const {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  return static_cast<int>(jobs_[static_cast<size_t>(job_id.value)].threads.size());
}

Status SimMachine::AddJobMemory(JobId job_id, int64_t delta_bytes) {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (job.memory_bytes + delta_bytes < 0) {
    return InvalidArgumentError("job memory would go negative");
  }
  job.memory_bytes += delta_bytes;
  used_memory_bytes_ += delta_bytes;
  return OkStatus();
}

StatusOr<int64_t> SimMachine::JobMemory(JobId job_id) const {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  return jobs_[static_cast<size_t>(job_id.value)].memory_bytes;
}

int64_t SimMachine::FreeMemoryBytes() const { return spec_.memory_bytes - used_memory_bytes_; }

// --- Threads -----------------------------------------------------------------

int SimMachine::AllocThreadSlot() {
  if (!free_threads_.empty()) {
    const int tid = free_threads_.back();
    free_threads_.pop_back();
    return tid;
  }
  threads_.emplace_back();
  return static_cast<int>(threads_.size()) - 1;
}

ThreadId SimMachine::SpawnThread(TenantClass tenant, JobId job, SimDuration work,
                                 CompletionFn on_complete, uint64_t trace_ctx) {
  const int tid = AllocThreadSlot();
  Thread& t = threads_[static_cast<size_t>(tid)];
  // A recycled slot is already idle (not queued, no slice event, no
  // callback); the slice fields are set by Dispatch before anything reads
  // them, so only the per-thread identity and counters are reset here.
  assert(t.state == Thread::State::kFree && !t.queued && !t.slice_event.valid() && !t.on_complete);
  t.tenant = tenant;
  t.job = job.valid() ? job.value : -1;
  t.state = Thread::State::kReady;
  t.remaining = std::max<SimDuration>(1, work);
  t.loop = false;
  t.on_complete = std::move(on_complete);
  t.core = -1;
  t.cpu_time = 0;
  t.trace_ctx = trace_ctx;
  if (t.job >= 0) {
    Job& owner = jobs_[static_cast<size_t>(t.job)];
    assert(owner.live);
    t.job_pos = static_cast<int>(owner.threads.size());
    owner.threads.push_back(tid);
  }
  ++metrics_.threads_spawned;
  t.ready_since = sim_->Now();
  NoteReadyBurst(sim_->Now());
  MakeReady(tid);
  return ThreadId{tid};
}

ThreadId SimMachine::SpawnLoopThread(TenantClass tenant, JobId job) {
  const ThreadId tid = SpawnThread(tenant, job, kSecond, nullptr);
  threads_[static_cast<size_t>(tid.value)].loop = true;
  return tid;
}

Status SimMachine::KillThread(ThreadId tid) {
  if (!ThreadLive(tid)) {
    return InvalidArgumentError("no such thread");
  }
  Thread& t = threads_[static_cast<size_t>(tid.value)];
  int freed_core = -1;
  if (t.state == Thread::State::kRunning) {
    ChargeRun(t);
    NoteStopRunning(t);
    freed_core = t.core;
    cores_[static_cast<size_t>(freed_core)].running = -1;
    idle_mask_.Set(freed_core);
  } else if (t.state == Thread::State::kReady && t.queued) {
    RemoveFromQueue(t, tid.value);
  }
  FinishThread(tid.value, /*run_callback=*/false);
  if (freed_core >= 0) {
    RefillCore(freed_core);
  }
  return OkStatus();
}

bool SimMachine::ThreadLive(ThreadId tid) const {
  if (!tid.valid() || tid.value >= static_cast<int>(threads_.size())) {
    return false;
  }
  const Thread::State state = threads_[static_cast<size_t>(tid.value)].state;
  return state == Thread::State::kReady || state == Thread::State::kRunning;
}

// --- Scheduling core ----------------------------------------------------------

const CpuSet& SimMachine::EffectiveAffinity(const Thread& t) const {
  return t.job < 0 ? all_cores_ : jobs_[static_cast<size_t>(t.job)].affinity;
}

SimDuration SimMachine::RateBudgetLeft(Job& job) const {
  const int64_t idx = sim_->Now() / spec_.throttle_interval;
  if (job.usage_interval != idx) {
    job.usage_interval = idx;
    job.usage = 0;
  }
  const auto budget = static_cast<SimDuration>(
      job.rate_cap * static_cast<double>(spec_.throttle_interval) * spec_.num_cores);
  return budget - job.usage;
}

bool SimMachine::JobDispatchable(const Thread& t) const {
  // Budget exhaustion is handled by the per-job exhaust event (which sets
  // `throttled`), so the gates here are the throttle and suspend flags.
  if (t.job < 0) {
    return true;
  }
  const Job& job = jobs_[static_cast<size_t>(t.job)];
  return !job.throttled && !job.suspended;
}

Status SimMachine::SetJobSuspended(JobId job_id, bool suspended) {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  Job& job = jobs_[static_cast<size_t>(job_id.value)];
  if (!job.live) {
    return FailedPreconditionError("job is dead: " + job.name);
  }
  if (job.suspended == suspended) {
    return OkStatus();
  }
  job.suspended = suspended;
  if (suspended) {
    // Running threads stay queued on their cores until resume.
    for (int core : PreemptJob(job)) {
      RefillCore(core);
    }
  } else {
    PlaceReadyThreads(job);
  }
  return OkStatus();
}

StatusOr<bool> SimMachine::JobSuspended(JobId job_id) const {
  PERFISO_RETURN_IF_ERROR(CheckJob(job_id));
  return jobs_[static_cast<size_t>(job_id.value)].suspended;
}

SimDuration SimMachine::InflightWork(const Job& job) const {
  SimDuration inflight = 0;
  for (int tid : job.threads) {
    const Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state == Thread::State::kRunning) {
      const SimDuration elapsed = sim_->Now() - t.slice_start;
      inflight += std::max<SimDuration>(0, elapsed - t.slice_overhead);
    }
  }
  return inflight;
}

void SimMachine::ScheduleExhaustCheck(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  if (!job.live || job.rate_cap <= 0 || job.throttled || job.running_count <= 0) {
    sim_->CancelOwned(job.exhaust_event);  // a pending check (if any) is now moot
    return;
  }
  const SimDuration left = RateBudgetLeft(job) - InflightWork(job);
  if (left < job.running_count) {  // less than 1 ns of budget per running thread
    ThrottleJob(job_id);
    return;
  }
  // A pending check that fires no later is kept (it recomputes); a later one
  // is pulled earlier (consumption sped up).
  const SimTime when = sim_->Now() + left / job.running_count;
  sim_->ScheduleOrTighten(job.exhaust_event, when, [this, job_id] { OnExhaustCheck(job_id); });
}

void SimMachine::OnExhaustCheck(int job_id) {
  // This callback is the exhaust event firing: drop the now-stale handle
  // before recomputing, so it never lingers past the slot's recycle.
  jobs_[static_cast<size_t>(job_id)].exhaust_event = EventHandle();
  ScheduleExhaustCheck(job_id);  // recomputes: throttles now or re-arms later
}

int SimMachine::PickIdleCore(const CpuSet& eff, int preferred) const {
  if (preferred >= 0 && idle_mask_.Test(preferred) && eff.Test(preferred)) {
    return preferred;
  }
  return (idle_mask_ & eff).Lowest();
}

int SimMachine::PickQueueCore(const CpuSet& eff) const {
  // The lowest allowed core with an empty queue wins outright.
  const int empty = eff.Minus(nonempty_queues_).Lowest();
  if (empty >= 0) {
    return empty;
  }
  int best = -1;
  size_t best_len = 0;
  for (int core = eff.Lowest(); core >= 0; core = eff.NextAfter(core)) {
    const size_t len = cores_[static_cast<size_t>(core)].ready.size();
    if (best < 0 || len < best_len) {
      best = core;
      best_len = len;
    }
  }
  return best;
}

void SimMachine::NoteReadyBurst(SimTime now) {
  recent_ready_times_.push_back(now);
  while (!recent_ready_times_.empty() && recent_ready_times_.front() < now - kBurstWindow) {
    recent_ready_times_.pop_front();
  }
  metrics_.max_ready_burst_5us =
      std::max(metrics_.max_ready_burst_5us, static_cast<int>(recent_ready_times_.size()));
}

void SimMachine::MakeReady(int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  assert(t.state == Thread::State::kReady && !t.queued);
  const CpuSet& eff = EffectiveAffinity(t);
  if (JobDispatchable(t)) {
    const int idle_core = PickIdleCore(eff, t.core);
    if (idle_core >= 0) {
      Dispatch(idle_core, tid, /*context_switch=*/true);
      return;
    }
  }
  const int queue_core = PickQueueCore(eff);
  assert(queue_core >= 0);
  Enqueue(queue_core, tid);
}

void SimMachine::Enqueue(int core, int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  t.core = core;
  t.queued = true;
  cores_[static_cast<size_t>(core)].ready.push_back(tid);
  nonempty_queues_.Set(core);
  ++(t.job < 0 ? unmanaged_queued_ : jobs_[static_cast<size_t>(t.job)].queued_count);
}

std::deque<int>::iterator SimMachine::Dequeue(int core, std::deque<int>::iterator it) {
  Thread& t = threads_[static_cast<size_t>(*it)];
  assert(t.queued && t.core == core);
  t.queued = false;
  --(t.job < 0 ? unmanaged_queued_ : jobs_[static_cast<size_t>(t.job)].queued_count);
  std::deque<int>& ready = cores_[static_cast<size_t>(core)].ready;
  it = ready.erase(it);
  if (ready.empty()) {
    nonempty_queues_.Clear(core);
  }
  return it;
}

bool SimMachine::HasEligibleQueued(int core) const {
  if (unmanaged_queued_ > 0) {
    return true;
  }
  for (const Job& job : jobs_) {
    if (job.queued_count > 0 && !job.throttled && !job.suspended && job.affinity.Test(core)) {
      return true;
    }
  }
  return false;
}

void SimMachine::Dispatch(int core, int tid, bool context_switch) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  Core& c = cores_[static_cast<size_t>(core)];
  assert(t.state == Thread::State::kReady || (!context_switch && c.running == tid));
  assert(context_switch ? c.running < 0 : true);

  if (context_switch && t.tenant == TenantClass::kPrimary) {
    metrics_.primary_sched_delay_us.Add(ToMicros(sim_->Now() - t.ready_since));
  }
  if (context_switch && tracer_ != nullptr && t.trace_ctx != 0 &&
      sim_->Now() > t.ready_since) {
    tracer_->Span(t.trace_ctx, "cpu.wait", SpanCategory::kCpuWait,
                  first_core_track_ + core, t.ready_since, sim_->Now());
  }

  SimDuration run_len = spec_.quantum;
  if (!t.loop) {
    run_len = std::min(run_len, t.remaining);
  }
  const bool capped = t.job >= 0 && jobs_[static_cast<size_t>(t.job)].rate_cap > 0;
  if (capped) {
    // Keep capped-job slices inside one accounting interval so usage is
    // always charged to the interval the slice started in.
    const SimTime now = sim_->Now();
    const SimTime boundary = (now / spec_.throttle_interval + 1) * spec_.throttle_interval;
    run_len = std::min(run_len, boundary - now);
  }
  run_len = std::max<SimDuration>(1, run_len);

  const SimDuration overhead = context_switch ? spec_.context_switch : 0;
  if (t.state != Thread::State::kRunning && t.job >= 0) {
    ++jobs_[static_cast<size_t>(t.job)].running_count;
  }
  assert(!t.queued);  // callers take the thread out of its queue first
  t.state = Thread::State::kRunning;
  t.core = core;
  t.slice_start = sim_->Now();
  t.slice_overhead = overhead;
  c.running = tid;
  idle_mask_.Clear(core);
  ++metrics_.dispatches;
  metrics_.dispatch_digest = MixDispatch(metrics_.dispatch_digest, sim_->Now(), core, tid);

  t.slice_event = sim_->Schedule(sim_->Now() + overhead + run_len,
                                 [this, core, tid] { OnSliceEnd(core, tid); });
  if (capped) {
    // May throttle the job immediately (preempting this thread again).
    ScheduleExhaustCheck(t.job);
  }
}

void SimMachine::NoteStopRunning(Thread& t) {
  if (t.job < 0) {
    return;
  }
  Job& job = jobs_[static_cast<size_t>(t.job)];
  --job.running_count;
  assert(job.running_count >= 0);
  if (job.rate_cap > 0) {
    ScheduleExhaustCheck(t.job);  // consumption rate dropped; no-op if throttled
  }
}

SimDuration SimMachine::ChargeRun(Thread& t) {
  const SimTime now = sim_->Now();
  const SimDuration elapsed = now - t.slice_start;
  if (elapsed <= 0) {
    return 0;
  }
  const SimDuration overhead = std::min(elapsed, t.slice_overhead);
  const SimDuration work = elapsed - overhead;
  const SimTime charge_start = t.slice_start;
  t.slice_start = now;
  t.slice_overhead -= overhead;
  metrics_.busy_ns[static_cast<int>(TenantClass::kOs)] += overhead;
  if (work > 0) {
    metrics_.busy_ns[static_cast<int>(t.tenant)] += work;
    t.cpu_time += work;
    if (!t.loop) {
      t.remaining -= work;
      assert(t.remaining >= 0);
    }
    if (t.job >= 0) {
      Job& job = jobs_[static_cast<size_t>(t.job)];
      job.cpu_time += work;
      if (job.rate_cap > 0) {
        // Charge the interval the slice started in (capped slices never span
        // a boundary by construction, modulo context-switch overhead).
        const int64_t idx = charge_start / spec_.throttle_interval;
        if (job.usage_interval != idx) {
          job.usage_interval = idx;
          job.usage = 0;
        }
        job.usage += work;
      }
    }
    if (tracer_ != nullptr && t.trace_ctx != 0) {
      tracer_->Span(t.trace_ctx, "cpu.run", SpanCategory::kService,
                    first_core_track_ + t.core, charge_start + overhead, now);
    }
  }
  return work;
}

void SimMachine::OnSliceEnd(int core, int tid) {
  // Preemption, kill, and re-dispatch cancel the slice event eagerly, so a
  // stale slice end can never fire.
  Thread& t = threads_[static_cast<size_t>(tid)];
  assert(t.state == Thread::State::kRunning && t.core == core);
  // This callback is the slice event firing: drop the stale handle now. The
  // yield path below parks the thread as kReady without re-arming, and a
  // later kill must not poke at a recycled slot through the old handle.
  t.slice_event = EventHandle();
  ChargeRun(t);

  if (!t.loop && t.remaining <= 0) {
    // Burst complete.
    NoteStopRunning(t);
    cores_[static_cast<size_t>(core)].running = -1;
    idle_mask_.Set(core);
    FinishThread(tid, /*run_callback=*/true);
    RefillCore(core);
    return;
  }

  // Quantum expired: yield to a waiting eligible thread if any, else renew.
  Core& c = cores_[static_cast<size_t>(core)];
  bool waiter_exists = false;
  for (int waiting_tid : c.ready) {
    const Thread& w = threads_[static_cast<size_t>(waiting_tid)];
    if (EffectiveAffinity(w).Test(core) && JobDispatchable(w)) {
      waiter_exists = true;
      break;
    }
  }
  if (waiter_exists) {
    PreemptToQueue(tid);
    RefillCore(core);
  } else {
    Dispatch(core, tid, /*context_switch=*/false);  // fresh quantum, no switch cost
  }
}

void SimMachine::DispatchNext(int core) {
  Core& c = cores_[static_cast<size_t>(core)];
  assert(c.running < 0);
  std::vector<int> displaced;  // threads whose affinity no longer allows this core

  int chosen = -1;
  for (auto it = c.ready.begin(); it != c.ready.end();) {
    const int tid = *it;
    Thread& t = threads_[static_cast<size_t>(tid)];
    if (!EffectiveAffinity(t).Test(core)) {
      it = Dequeue(core, it);
      t.core = -1;
      displaced.push_back(tid);
      continue;
    }
    if (!JobDispatchable(t)) {
      ++it;  // throttled: stays queued until its job is unthrottled
      continue;
    }
    chosen = tid;
    Dequeue(core, it);
    break;
  }

  // Work stealing: take the longest-waiting eligible thread from any other
  // core's queue. This keeps the machine approximately work-conserving
  // while preserving the no-wake-preemption property. Whatever is left in
  // this core's own queue is ineligible here, so the per-job counts answer
  // "is there anything to steal?" without a scan, and only non-empty queues
  // are visited.
  if (chosen < 0 && HasEligibleQueued(core)) {
    int victim_core = -1;
    std::deque<int>::iterator victim_it;
    SimTime oldest = 0;
    for (int other = nonempty_queues_.Lowest(); other >= 0;
         other = nonempty_queues_.NextAfter(other)) {
      if (other == core) {
        continue;
      }
      Core& oc = cores_[static_cast<size_t>(other)];
      for (auto it = oc.ready.begin(); it != oc.ready.end(); ++it) {
        Thread& w = threads_[static_cast<size_t>(*it)];
        if (!EffectiveAffinity(w).Test(core) || !JobDispatchable(w)) {
          continue;
        }
        if (victim_core < 0 || w.ready_since < oldest) {
          victim_core = other;
          victim_it = it;
          oldest = w.ready_since;
        }
        break;  // the front-most eligible thread is this queue's candidate
      }
    }
    assert(victim_core >= 0);
    chosen = *victim_it;
    Dequeue(victim_core, victim_it);
    ++metrics_.steals;
  }

  if (chosen >= 0) {
    Dispatch(core, chosen, /*context_switch=*/true);
  } else {
    idle_mask_.Set(core);
  }

  for (int tid : displaced) {
    MakeReady(tid);
  }
}

void SimMachine::RemoveFromQueue(Thread& t, int tid) {
  assert(t.queued && t.core >= 0);
  std::deque<int>& ready = cores_[static_cast<size_t>(t.core)].ready;
  auto it = std::find(ready.begin(), ready.end(), tid);
  assert(it != ready.end());
  Dequeue(t.core, it);
  t.core = -1;
}

void SimMachine::ThrottleJob(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  if (job.throttled) {
    return;
  }
  job.throttled = true;
  sim_->CancelOwned(job.exhaust_event);  // budget checks are moot while throttled
  const std::vector<int> freed_cores = PreemptJob(job);
  // Armed before the freed cores redispatch: capped slices end on this same
  // interval boundary, and same-time events run in scheduling order.
  if (!sim_->Pending(job.unthrottle_event)) {
    const SimTime boundary =
        (sim_->Now() / spec_.throttle_interval + 1) * spec_.throttle_interval;
    job.unthrottle_event = sim_->Schedule(boundary, [this, job_id] { UnthrottleJob(job_id); });
  }
  for (int core : freed_cores) {
    RefillCore(core);
  }
}

void SimMachine::UnthrottleJob(int job_id) {
  Job& job = jobs_[static_cast<size_t>(job_id)];
  job.throttled = false;
  // When called directly (cap removed mid-interval), the armed end-of-interval
  // unthrottle is stale; remove it instead of letting it fire as a no-op.
  // When this *is* the unthrottle event firing, the cancel is a benign no-op
  // and the reset drops the fired handle before its slot can recycle.
  sim_->CancelOwned(job.unthrottle_event);
  if (!job.live) {
    return;
  }
  PlaceReadyThreads(job);  // the budget resets lazily via RateBudgetLeft
}

int SimMachine::Preempt(Thread& t) {
  ChargeRun(t);
  sim_->CancelOwned(t.slice_event);
  ++metrics_.preemptions;
  NoteStopRunning(t);
  const int core = t.core;
  cores_[static_cast<size_t>(core)].running = -1;
  t.state = Thread::State::kReady;
  return core;
}

int SimMachine::PreemptToQueue(int tid) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  const int core = Preempt(t);
  t.ready_since = sim_->Now();
  Enqueue(core, tid);
  return core;
}

std::vector<int> SimMachine::PreemptJob(const Job& job) {
  std::vector<int> freed_cores;
  for (int tid : job.threads) {
    if (threads_[static_cast<size_t>(tid)].state == Thread::State::kRunning) {
      freed_cores.push_back(PreemptToQueue(tid));
    }
  }
  return freed_cores;
}

void SimMachine::RefillCore(int core) {
  if (cores_[static_cast<size_t>(core)].running < 0) {
    idle_mask_.Set(core);
    DispatchNext(core);
  }
}

void SimMachine::PlaceReadyThreads(const Job& job) {
  for (int tid : job.threads) {
    Thread& t = threads_[static_cast<size_t>(tid)];
    if (t.state != Thread::State::kReady || !JobDispatchable(t)) {
      continue;
    }
    const int idle_core = PickIdleCore(EffectiveAffinity(t), -1);
    if (idle_core < 0) {
      continue;  // other threads may have wider masks
    }
    if (t.queued) {
      RemoveFromQueue(t, tid);
    }
    Dispatch(idle_core, tid, /*context_switch=*/true);
  }
}

void SimMachine::KickIdleCores(const CpuSet& mask) {
  for (int core = mask.Lowest(); core >= 0; core = mask.NextAfter(core)) {
    if (idle_mask_.Test(core) && cores_[static_cast<size_t>(core)].running < 0) {
      DispatchNext(core);
    }
  }
}

void SimMachine::FinishThread(int tid, bool run_callback) {
  Thread& t = threads_[static_cast<size_t>(tid)];
  sim_->CancelOwned(t.slice_event);  // no-op on the completion path (already fired + cleared)
  if (t.job >= 0) {
    // Swap-with-back removal: the resulting order of `threads` feeds the
    // affinity, suspend and throttle loops, so it must stay exactly this.
    auto& siblings = jobs_[static_cast<size_t>(t.job)].threads;
    const auto pos = static_cast<size_t>(t.job_pos);
    assert(pos < siblings.size() && siblings[pos] == tid);
    siblings[pos] = siblings.back();
    threads_[static_cast<size_t>(siblings[pos])].job_pos = t.job_pos;
    siblings.pop_back();
    t.job_pos = -1;
  }
  CompletionFn callback = std::move(t.on_complete);
  t.state = Thread::State::kFree;
  free_threads_.push_back(tid);
  if (run_callback && callback) {
    callback(sim_->Now());
  }
}

Status SimMachine::CheckInvariants() const {
  // Core / idle-mask agreement, and running threads point back at their core.
  for (int core = 0; core < spec_.num_cores; ++core) {
    const Core& c = cores_[static_cast<size_t>(core)];
    if ((c.running < 0) != idle_mask_.Test(core)) {
      return InternalError("idle mask disagrees with core " + std::to_string(core));
    }
    if (c.running >= 0) {
      const Thread& t = threads_[static_cast<size_t>(c.running)];
      if (t.state != Thread::State::kRunning || t.core != core) {
        return InternalError("running thread state mismatch on core " + std::to_string(core));
      }
      if (!sim_->Pending(t.slice_event)) {
        return InternalError("running thread on core " + std::to_string(core) +
                             " has no pending slice event");
      }
    }
    for (int tid : c.ready) {
      const Thread& t = threads_[static_cast<size_t>(tid)];
      if (t.state != Thread::State::kReady || !t.queued || t.core != core) {
        return InternalError("queued thread state mismatch on core " + std::to_string(core));
      }
    }
    if (c.ready.empty() == nonempty_queues_.Test(core)) {
      return InternalError("non-empty-queue mask disagrees with core " + std::to_string(core));
    }
  }
  if (!nonempty_queues_.Minus(all_cores_).Empty()) {
    return InternalError("non-empty-queue mask names a core the machine lacks");
  }
  // Every ready+queued thread appears in exactly one queue; job bookkeeping.
  std::vector<int> queue_appearances(threads_.size(), 0);
  for (const Core& c : cores_) {
    for (int tid : c.ready) {
      ++queue_appearances[static_cast<size_t>(tid)];
    }
  }
  // The queued counts that gate work stealing, recounted from scratch.
  std::vector<int> queued_per_job(jobs_.size(), 0);
  int unmanaged_queued = 0;
  for (size_t tid = 0; tid < threads_.size(); ++tid) {
    const Thread& t = threads_[tid];
    const int expected = t.state == Thread::State::kReady && t.queued ? 1 : 0;
    if (expected == 1) {
      ++(t.job < 0 ? unmanaged_queued : queued_per_job[static_cast<size_t>(t.job)]);
    }
    if (queue_appearances[tid] != expected) {
      return InternalError("thread " + std::to_string(tid) + " appears in " +
                           std::to_string(queue_appearances[tid]) + " queues, expected " +
                           std::to_string(expected));
    }
    if (t.state != Thread::State::kRunning && sim_->Pending(t.slice_event)) {
      return InternalError("non-running thread " + std::to_string(tid) +
                           " still has a pending slice event");
    }
  }
  if (unmanaged_queued != unmanaged_queued_) {
    return InternalError("unmanaged queued count " + std::to_string(unmanaged_queued_) +
                         " != actual " + std::to_string(unmanaged_queued));
  }
  for (size_t job_id = 0; job_id < jobs_.size(); ++job_id) {
    const Job& job = jobs_[job_id];
    if (job.queued_count != queued_per_job[job_id]) {
      return InternalError("job " + job.name + " queued_count " +
                           std::to_string(job.queued_count) + " != actual " +
                           std::to_string(queued_per_job[job_id]));
    }
    int running = 0;
    for (size_t pos = 0; pos < job.threads.size(); ++pos) {
      const Thread& t = threads_[static_cast<size_t>(job.threads[pos])];
      if (t.job != static_cast<int>(job_id) || t.job_pos != static_cast<int>(pos)) {
        return InternalError("job thread list mismatch for job " + job.name);
      }
      if (t.state == Thread::State::kRunning) {
        ++running;
      }
    }
    if (running != job.running_count) {
      return InternalError("job " + job.name + " running_count " +
                           std::to_string(job.running_count) + " != actual " +
                           std::to_string(running));
    }
  }
  // Accounting can never exceed machine capacity.
  if (metrics_.TotalBusy() > sim_->Now() * spec_.num_cores) {
    return InternalError("busy time exceeds machine capacity");
  }
  return OkStatus();
}

int SimMachine::EnableTracing(Tracer* tracer) {
  tracer_ = tracer;
  const int pid = tracer->RegisterProcess(name_);
  for (int core = 0; core < spec_.num_cores; ++core) {
    const int track = tracer->RegisterTrack(pid, "core" + std::to_string(core));
    if (core == 0) {
      first_core_track_ = track;
    }
  }
  return pid;
}

void SimMachine::SettleAccounting() {
  for (Core& core : cores_) {
    if (core.running >= 0) {
      ChargeRun(threads_[static_cast<size_t>(core.running)]);
    }
  }
}

double SimMachine::UtilizationSince(SimTime since, const SimDuration busy_then[kNumTenantClasses],
                                    TenantClass tenant) const {
  const SimDuration window = sim_->Now() - since;
  if (window <= 0) {
    return 0;
  }
  const SimDuration delta =
      metrics_.busy_ns[static_cast<int>(tenant)] - busy_then[static_cast<int>(tenant)];
  return static_cast<double>(delta) / (static_cast<double>(window) * spec_.num_cores);
}

}  // namespace perfiso
