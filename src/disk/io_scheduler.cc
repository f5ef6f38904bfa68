#include "src/disk/io_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace perfiso {

IoScheduler::IoScheduler(Simulator* sim, StripedVolume* volume, int max_outstanding)
    : sim_(sim), volume_(volume), max_outstanding_(max_outstanding) {
  assert(max_outstanding > 0);
}

void IoScheduler::RegisterOwner(int owner, std::string name, int priority, double weight) {
  Owner& state = owners_[owner];
  state.name = std::move(name);
  state.priority = std::clamp(priority, 0, kNumPriorities - 1);
  state.weight = weight > 0 ? weight : 1.0;
}

IoScheduler::Owner& IoScheduler::GetOrCreateOwner(int owner) {
  auto it = owners_.find(owner);
  if (it == owners_.end()) {
    RegisterOwner(owner, "owner-" + std::to_string(owner), kNumPriorities - 1, 1.0);
    it = owners_.find(owner);
  }
  return it->second;
}

Status IoScheduler::CheckOwner(int owner) const {
  return owners_.count(owner) != 0 ? OkStatus() : NotFoundError("unregistered I/O owner");
}

Status IoScheduler::SetPriority(int owner, int priority) {
  PERFISO_RETURN_IF_ERROR(CheckOwner(owner));
  Owner& state = owners_.at(owner);
  if (priority < 0 || priority >= kNumPriorities) {
    return InvalidArgumentError("priority out of range");
  }
  state.priority = priority;
  Pump();
  return OkStatus();
}

Status IoScheduler::SetWeight(int owner, double weight) {
  PERFISO_RETURN_IF_ERROR(CheckOwner(owner));
  Owner& state = owners_.at(owner);
  if (weight <= 0) {
    return InvalidArgumentError("weight must be positive");
  }
  state.weight = weight;
  return OkStatus();
}

Status IoScheduler::SetBandwidthCap(int owner, double bytes_per_sec) {
  PERFISO_RETURN_IF_ERROR(CheckOwner(owner));
  Owner& state = owners_.at(owner);
  if (bytes_per_sec <= 0) {
    state.bandwidth_cap.reset();
  } else {
    // Burst of one second's allowance keeps large sequential ops admissible.
    state.bandwidth_cap = std::make_unique<TokenBucket>(bytes_per_sec, bytes_per_sec);
  }
  Pump();
  return OkStatus();
}

Status IoScheduler::SetIopsCap(int owner, double iops) {
  PERFISO_RETURN_IF_ERROR(CheckOwner(owner));
  Owner& state = owners_.at(owner);
  if (iops <= 0) {
    state.iops_cap.reset();
  } else {
    state.iops_cap = std::make_unique<TokenBucket>(iops, std::max(1.0, iops / 10));
  }
  Pump();
  return OkStatus();
}

StatusOr<int> IoScheduler::Priority(int owner) const {
  PERFISO_RETURN_IF_ERROR(CheckOwner(owner));
  return owners_.at(owner).priority;
}

void IoScheduler::Submit(IoRequest request) {
  Owner& owner = GetOrCreateOwner(request.owner);
  ++owner.stats.submitted;
  // The serving drive settles this scheduler's accounting on completion.
  request.scheduler = this;
  request.sched_submit_time = sim_->Now();
  owner.queue.push_back(std::move(request));
  Pump();
}

void IoScheduler::SettleCompleted(const IoRequest& request, SimTime now) {
  const auto it = owners_.find(request.owner);
  assert(it != owners_.end());  // Submit registered the owner
  OwnerSchedStats& stats = it->second.stats;
  ++stats.completed;
  stats.bytes_completed += request.bytes;
  stats.total_latency_us.Add(ToMicros(now - request.sched_submit_time));
  --outstanding_;
}

int IoScheduler::CancelAll() {
  int dropped = 0;
  for (auto& entry : owners_) {
    dropped += static_cast<int>(entry.second.queue.size());
    entry.second.queue.clear();
    entry.second.deficit_bytes = 0;
  }
  dropped += volume_->CancelAll();
  // The cancelled in-flight requests would have decremented outstanding_ on
  // completion; they will never complete now, so reset the count here or
  // dispatch stalls forever after a restart.
  outstanding_ = 0;
  resume_owner_ = {-1, -1, -1};
  sim_->CancelOwned(retry_event_);
  return dropped;
}

void IoScheduler::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "sched");
}

bool IoScheduler::CapsAllow(Owner& owner, const IoRequest& request, SimTime now,
                            SimTime* earliest) {
  SimTime when = now;
  if (owner.bandwidth_cap != nullptr) {
    when = std::max(when,
                    owner.bandwidth_cap->NextAvailable(static_cast<double>(request.bytes), now));
  }
  if (owner.iops_cap != nullptr) {
    when = std::max(when, owner.iops_cap->NextAvailable(1.0, now));
  }
  if (when > now) {
    *earliest = std::min(*earliest, when);
    return false;
  }
  return true;
}

void IoScheduler::ChargeCaps(Owner& owner, const IoRequest& request, SimTime now) {
  if (owner.bandwidth_cap != nullptr) {
    owner.bandwidth_cap->ForceConsume(static_cast<double>(request.bytes), now);
  }
  if (owner.iops_cap != nullptr) {
    owner.iops_cap->ForceConsume(1.0, now);
  }
}

bool IoScheduler::ServeBand(int priority, SimTime now, SimTime* earliest_retry) {
  // Owners in this band with pending work, in stable (id) order. An owner
  // whose queue drained loses its banked deficit (standard DWRR). The list
  // lives in a member so its capacity is reused; ServeBand never re-enters
  // (handing a request to the volume only schedules events).
  std::vector<std::map<int, Owner>::iterator>& band = band_scratch_;
  band.clear();
  for (auto it = owners_.begin(); it != owners_.end(); ++it) {
    if (it->second.priority != priority) {
      continue;
    }
    if (it->second.queue.empty()) {
      it->second.deficit_bytes = 0;
      continue;
    }
    band.push_back(it);
  }
  if (band.empty()) {
    return false;
  }

  // Resume semantics: if the previous round stopped mid-drain because the
  // outstanding bound filled up (not because the owner ran out of deficit),
  // continue with that owner — without granting a fresh quantum — so weight
  // ratios hold even when only one request can be in flight at a time.
  const auto p = static_cast<size_t>(priority);
  size_t start = 0;
  bool resuming = false;
  if (resume_owner_[p] >= 0) {
    for (size_t i = 0; i < band.size(); ++i) {
      if (band[i]->first == resume_owner_[p]) {
        start = i;
        resuming = true;
        break;
      }
    }
  }
  if (!resuming) {
    for (size_t i = 0; i < band.size(); ++i) {
      if (band[i]->first > last_served_[p]) {
        start = i;
        break;
      }
    }
  }
  resume_owner_[p] = -1;

  bool progressed = false;
  for (size_t visit = 0; visit < band.size(); ++visit) {
    auto it = band[(start + visit) % band.size()];
    Owner& owner = it->second;
    // One quantum per visit (unless resuming a cut-short drain), then drain
    // while the deficit, the caps, and the outstanding bound allow. Draining
    // multiple requests per visit is what realizes the weight ratios.
    if (!(resuming && visit == 0)) {
      // Banked deficit is bounded, but never below the head request's size —
      // otherwise an owner with requests larger than its bank could starve
      // forever.
      const double cap = std::max(4 * owner.weight * kQuantumBytes,
                                  static_cast<double>(owner.queue.front().bytes));
      owner.deficit_bytes =
          std::min(owner.deficit_bytes + owner.weight * kQuantumBytes, cap);
    }
    bool drained_by_deficit_or_caps = false;
    while (outstanding_ < max_outstanding_) {
      if (owner.queue.empty()) {
        drained_by_deficit_or_caps = true;
        break;
      }
      const IoRequest& head = owner.queue.front();
      if (owner.deficit_bytes < static_cast<double>(head.bytes) ||
          !CapsAllow(owner, head, now, earliest_retry)) {
        drained_by_deficit_or_caps = true;
        break;
      }
      IoRequest request = std::move(owner.queue.front());
      owner.queue.pop_front();
      owner.deficit_bytes -= static_cast<double>(request.bytes);
      ChargeCaps(owner, request, now);
      ++owner.stats.dispatched;
      ++outstanding_;
      if (tracer_ != nullptr && request.trace_ctx != 0 &&
          now > request.sched_submit_time) {
        tracer_->Span(request.trace_ctx, "io.sched.queue",
                      SpanCategory::kDiskQueue, track_, request.sched_submit_time, now);
      }
      volume_->Submit(std::move(request));
      progressed = true;
    }
    last_served_[p] = it->first;
    if (outstanding_ >= max_outstanding_) {
      if (!drained_by_deficit_or_caps) {
        resume_owner_[p] = it->first;  // still owed service this round
      }
      break;
    }
  }
  return progressed;
}

void IoScheduler::Pump() {
  const SimTime now = sim_->Now();
  SimTime earliest_retry = std::numeric_limits<SimTime>::max();

  bool progressed = true;
  while (outstanding_ < max_outstanding_ && progressed) {
    progressed = false;
    for (int priority = 0; priority < kNumPriorities && !progressed; ++priority) {
      progressed = ServeBand(priority, now, &earliest_retry);
    }
  }

  // Everything dispatchable went out; if requests remain blocked purely on
  // token buckets, wake up when the earliest becomes admissible. A cap change
  // can move that point earlier, so the armed wake is rescheduled rather than
  // left to fire late; when nothing is bucket-blocked, the stale wake leaves
  // the queue eagerly.
  if (earliest_retry != std::numeric_limits<SimTime>::max() &&
      outstanding_ < max_outstanding_) {
    // The wake clears its own handle on firing so no stale handle lingers
    // once the slot goes back to the slab.
    sim_->ScheduleOrTighten(retry_event_, earliest_retry, [this] {
      retry_event_ = EventHandle();
      Pump();
    });
  } else {
    sim_->CancelOwned(retry_event_);
  }
}

const IoScheduler::OwnerSchedStats& IoScheduler::Stats(int owner) const {
  static const OwnerSchedStats kEmpty;
  auto it = owners_.find(owner);
  return it == owners_.end() ? kEmpty : it->second.stats;
}

}  // namespace perfiso
