// The DWRR I/O throttler of §4.1.
//
// OS monitoring gives only per-device IOPS, so PerfIso attributes demand by
// weight: with w_i the weight of process i and curr^t the measured IOPS at
// poll t, the demand of process i over a window Δ is
//
//     D_i^t = sum_{t'=t-Δ..t} w_i * curr^{t'} / sum_j w_j
//
// and its deficit against its guarantee lim_i is
//
//     Def_i^t = (curr_i^t - min(lim_i, D_i^t)) / min(lim_i, D_i^t).
//
// Processes far above their entitlement (large positive deficit) are demoted
// to a lower I/O priority band; starved processes are promoted back toward
// their base band.
#ifndef PERFISO_SRC_PERFISO_IO_THROTTLER_H_
#define PERFISO_SRC_PERFISO_IO_THROTTLER_H_

#include <map>
#include <vector>

#include "src/obs/trace.h"
#include "src/perfiso/perfiso_config.h"
#include "src/platform/platform.h"
#include "src/util/stats.h"

namespace perfiso {

class IoThrottler {
 public:
  // `window_polls` is Δ, in polls.
  IoThrottler(Platform* platform, const std::vector<IoOwnerLimit>& limits, int window_polls);

  // Applies the static limits (bandwidth/IOPS caps, base priorities).
  Status ApplyStaticLimits();

  // One measurement + adjustment pass; call at the configured I/O poll
  // interval. `now` is used to convert op-count deltas into IOPS.
  void Poll(SimTime now);

  // Priority demote/promote decisions become instants on `track` (the
  // controller's track on its machine's process).
  void EnableTracing(Tracer* tracer, int32_t track);

  // Per-owner introspection for tests and benches.
  double SmoothedIops(int owner) const;
  double Demand(int owner) const;
  double Deficit(int owner) const;
  int64_t adjustments() const { return adjustments_; }

 private:
  struct OwnerState {
    IoOwnerLimit limit;
    int64_t last_ops = 0;
    SimTime last_poll = -1;
    MovingAverage iops_window;
    double demand = 0;
    double deficit = 0;
    int current_priority = 2;

    OwnerState(const IoOwnerLimit& l, int window)
        : limit(l), iops_window(static_cast<size_t>(window)), current_priority(l.priority) {}
  };

  Platform* platform_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  std::map<int, OwnerState> owners_;
  double total_weight_ = 0;
  int64_t adjustments_ = 0;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_IO_THROTTLER_H_
