// PerfIsoController: the user-mode service of §4.
//
// Polling and updating are split: utilization is polled in a tight loop, but
// control knobs are only touched when the measured state demands a change
// ("constantly updating certain settings can become harmful", §4.1). The
// controller is platform-agnostic — the caller drives Poll(), either from a
// simulator PeriodicTask or from a real-time thread.
#ifndef PERFISO_SRC_PERFISO_CONTROLLER_H_
#define PERFISO_SRC_PERFISO_CONTROLLER_H_

#include <memory>
#include <optional>

#include "src/obs/trace.h"
#include "src/perfiso/io_throttler.h"
#include "src/perfiso/perfiso_config.h"
#include "src/perfiso/policy.h"
#include "src/platform/platform.h"
#include "src/sim/simulator.h"

namespace perfiso {

class PerfIsoController {
 public:
  PerfIsoController(Platform* platform, const PerfIsoConfig& config);

  PerfIsoController(const PerfIsoController&) = delete;
  PerfIsoController& operator=(const PerfIsoController&) = delete;

  // Applies static settings (initial affinity/caps, I/O limits, egress).
  // Must be called once before polling.
  Status Initialize();

  // One control iteration (CPU). Cheap when nothing changed.
  void Poll();

  // One I/O-throttler iteration; drive at config.io_poll_interval.
  void PollIo();

  // Convenience: arms periodic tasks on a simulator for both loops.
  void AttachToSimulator(Simulator* sim);

  // Registers a "perfiso" track under `process` (the machine the controller
  // manages); control decisions — affinity updates, throttler promotions and
  // demotions, memory kills, kill-switch flips — appear there as instants.
  void EnableTracing(Tracer* tracer, int process);

  // Kill switch (§4.2): deactivate restores OS defaults immediately; PerfIso
  // can later be re-activated and resumes from its configuration.
  Status SetActive(bool active);
  bool active() const { return active_; }

  struct Stats {
    int64_t polls = 0;
    int64_t affinity_updates = 0;
    int64_t rate_updates = 0;
    int64_t memory_checks = 0;
    int64_t memory_kills = 0;
    int64_t io_polls = 0;
  };
  const Stats& stats() const { return stats_; }
  int secondary_cores() const;
  const IoThrottler* io_throttler() const { return io_throttler_.get(); }

 private:
  Status ApplyCpuMode();
  Status RestoreDefaults();
  void CheckMemory();

  Platform* platform_;
  PerfIsoConfig config_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  bool active_ = false;
  bool initialized_ = false;
  std::optional<BlindIsolationPolicy> blind_policy_;
  std::unique_ptr<IoThrottler> io_throttler_;
  Stats stats_;
  bool secondary_killed_ = false;
  std::unique_ptr<PeriodicTask> cpu_task_;
  std::unique_ptr<PeriodicTask> io_task_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_CONTROLLER_H_
