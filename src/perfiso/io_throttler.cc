#include "src/perfiso/io_throttler.h"

#include <algorithm>
#include <cassert>

#include "src/util/logging.h"

namespace perfiso {

namespace {
// A process whose deficit is above this is demoted one band; below
// kPromoteDeficit it is promoted back toward its base band.
constexpr double kDemoteDeficit = 0.5;
constexpr double kPromoteDeficit = 0.0;
}  // namespace

IoThrottler::IoThrottler(Platform* platform, const std::vector<IoOwnerLimit>& limits,
                         int window_polls)
    : platform_(platform) {
  assert(platform_ != nullptr);
  for (const IoOwnerLimit& limit : limits) {
    owners_.emplace(limit.owner, OwnerState(limit, window_polls));
    total_weight_ += limit.weight;
  }
}

Status IoThrottler::ApplyStaticLimits() {
  for (auto& [owner, state] : owners_) {
    if (state.limit.bandwidth_bps > 0) {
      PERFISO_RETURN_IF_ERROR(platform_->SetIoBandwidthCap(owner, state.limit.bandwidth_bps));
    }
    if (state.limit.iops > 0) {
      PERFISO_RETURN_IF_ERROR(platform_->SetIoIopsCap(owner, state.limit.iops));
    }
    PERFISO_RETURN_IF_ERROR(platform_->SetIoPriority(owner, state.limit.priority));
  }
  return OkStatus();
}

void IoThrottler::Poll(SimTime now) {
  // Pass 1: measure per-owner IOPS over the last poll interval.
  double total_iops = 0;
  for (auto& [owner, state] : owners_) {
    auto ops = platform_->IoOpsCompleted(owner);
    if (!ops.ok()) {
      continue;
    }
    if (state.last_poll < 0) {
      state.last_ops = *ops;
      state.last_poll = now;
      continue;
    }
    const double window_sec = ToSeconds(now - state.last_poll);
    if (window_sec <= 0) {
      continue;
    }
    const double iops = static_cast<double>(*ops - state.last_ops) / window_sec;
    state.last_ops = *ops;
    state.last_poll = now;
    state.iops_window.Add(iops);
    total_iops += iops;
  }

  // Pass 2: demand and deficit per the §4.1 formulas, then adjust priorities.
  for (auto& [owner, state] : owners_) {
    if (state.last_poll != now || total_weight_ <= 0) {
      continue;  // no fresh measurement this round
    }
    // Demand: this owner's weighted share of total measured IOPS, smoothed
    // over the window. The per-owner window already averages curr^{t'}.
    state.demand = state.limit.weight / total_weight_ * total_iops;
    const double curr_i = state.iops_window.Value();
    const double entitlement =
        state.limit.min_iops_guarantee > 0
            ? std::min(state.limit.min_iops_guarantee, std::max(state.demand, 1.0))
            : std::max(state.demand, 1.0);
    state.deficit = (curr_i - entitlement) / entitlement;

    int desired = state.current_priority;
    if (state.deficit > kDemoteDeficit) {
      desired = std::min(state.current_priority + 1, 2);
    } else if (state.deficit < kPromoteDeficit) {
      desired = std::max(state.current_priority - 1, state.limit.priority);
    }
    if (desired != state.current_priority) {
      if (platform_->SetIoPriority(owner, desired).ok()) {
        PERFISO_LOG(kDebug) << "io-throttler: owner " << owner << " priority "
                            << state.current_priority << " -> " << desired
                            << " (deficit " << state.deficit << ")";
        if (tracer_ != nullptr && desired > state.current_priority) {
          tracer_->Instant("io.throttle.demote", track_, now);
        } else if (tracer_ != nullptr) {
          tracer_->Instant("io.throttle.promote", track_, now);
        }
        state.current_priority = desired;
        ++adjustments_;
      }
    }
  }
}

void IoThrottler::EnableTracing(Tracer* tracer, int32_t track) {
  tracer_ = tracer;
  track_ = track;
}

double IoThrottler::SmoothedIops(int owner) const {
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.iops_window.Value();
}

double IoThrottler::Demand(int owner) const {
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.demand;
}

double IoThrottler::Deficit(int owner) const {
  auto it = owners_.find(owner);
  return it == owners_.end() ? 0 : it->second.deficit;
}

}  // namespace perfiso
