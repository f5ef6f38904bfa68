#include "src/perfiso/controller.h"

#include <cassert>

#include "src/util/logging.h"

namespace perfiso {

PerfIsoController::PerfIsoController(Platform* platform, const PerfIsoConfig& config)
    : platform_(platform), config_(config) {
  assert(platform_ != nullptr);
}

Status PerfIsoController::Initialize() {
  PERFISO_RETURN_IF_ERROR(config_.Validate(platform_->NumCores()));
  initialized_ = true;
  if (!config_.io_limits.empty()) {
    io_throttler_ = std::make_unique<IoThrottler>(
        platform_, config_.io_limits,
        IoThrottler::Options{config_.io_window_polls, 0.5, 0.0});
    if (tracer_ != nullptr) {
      io_throttler_->EnableTracing(tracer_, track_);
    }
    // Static I/O limits apply even when CPU isolation is switched off — they
    // are configuration, not dynamic control.
    Status io_status = io_throttler_->ApplyStaticLimits();
    if (!io_status.ok()) {
      PERFISO_LOG(kWarning) << "perfiso: static I/O limits not applied: "
                            << io_status.ToString();
    }
  }
  return SetActive(config_.enabled);
}

Status PerfIsoController::ApplyCpuMode() {
  const int cores = platform_->NumCores();
  switch (config_.cpu_mode) {
    case CpuIsolationMode::kNone:
      blind_policy_.reset();
      return OkStatus();
    case CpuIsolationMode::kBlindIsolation: {
      blind_policy_.emplace(config_.blind, cores);
      const CpuSet mask = BuildPlacementMask(config_.blind.placement,
                                             blind_policy_->secondary_cores(), cores);
      ++stats_.affinity_updates;
      return platform_->SetSecondaryAffinity(mask);
    }
    case CpuIsolationMode::kStaticCores: {
      blind_policy_.reset();
      const CpuSet mask = BuildPlacementMask(config_.blind.placement,
                                             config_.static_secondary_cores, cores);
      ++stats_.affinity_updates;
      return platform_->SetSecondaryAffinity(mask);
    }
    case CpuIsolationMode::kCpuRateCap: {
      blind_policy_.reset();
      ++stats_.rate_updates;
      return platform_->SetSecondaryCpuRateCap(config_.cpu_rate_cap);
    }
  }
  return InternalError("unreachable cpu mode");
}

Status PerfIsoController::RestoreDefaults() {
  // OS defaults: the secondary may use every core at full rate.
  PERFISO_RETURN_IF_ERROR(platform_->SetSecondaryAffinity(CpuSet::FirstN(platform_->NumCores())));
  PERFISO_RETURN_IF_ERROR(platform_->SetSecondaryCpuRateCap(0));
  if (config_.egress_rate_cap_bps > 0) {
    Status egress = platform_->SetEgressRateCap(0);
    if (!egress.ok()) {
      PERFISO_LOG(kWarning) << "perfiso: egress cap not cleared: " << egress.ToString();
    }
  }
  return OkStatus();
}

Status PerfIsoController::SetActive(bool active) {
  if (!initialized_) {
    return FailedPreconditionError("Initialize() not called");
  }
  if (active == active_) {
    return OkStatus();
  }
  if (!active) {
    active_ = false;
    PERFISO_LOG(kInfo) << "perfiso: kill switch engaged, restoring OS defaults";
    if (tracer_ != nullptr) {
      tracer_->Instant("perfiso.deactivate", track_, platform_->NowNs());
    }
    return RestoreDefaults();
  }
  active_ = true;
  if (tracer_ != nullptr) {
    tracer_->Instant("perfiso.activate", track_, platform_->NowNs());
  }
  if (config_.egress_rate_cap_bps > 0) {
    // Like the static I/O limits above: platforms without an egress shaper
    // (LinuxPlatform needs tc/HTB privileges) degrade to a logged warning
    // instead of failing the whole controller bring-up.
    Status egress = platform_->SetEgressRateCap(config_.egress_rate_cap_bps);
    if (!egress.ok()) {
      PERFISO_LOG(kWarning) << "perfiso: egress cap not applied: " << egress.ToString();
    }
  }
  return ApplyCpuMode();
}

void PerfIsoController::Poll() {
  if (!active_) {
    return;
  }
  ++stats_.polls;
  if (blind_policy_.has_value()) {
    const CpuSet idle = platform_->IdleCores();
    std::optional<CpuSet> update = blind_policy_->Decide(idle);
    if (update.has_value()) {
      ++stats_.affinity_updates;
      if (tracer_ != nullptr) {
        tracer_->Instant("perfiso.affinity.update", track_, platform_->NowNs());
      }
      Status status = platform_->SetSecondaryAffinity(*update);
      if (!status.ok()) {
        PERFISO_LOG(kWarning) << "perfiso: affinity update failed: " << status.ToString();
      }
    }
  }
  if (config_.memory_check_every_n_polls > 0 &&
      stats_.polls % config_.memory_check_every_n_polls == 0) {
    CheckMemory();
  }
}

void PerfIsoController::CheckMemory() {
  ++stats_.memory_checks;
  if (secondary_killed_ || config_.min_free_memory_bytes <= 0) {
    return;
  }
  auto free_bytes = platform_->FreeMemoryBytes();
  if (!free_bytes.ok()) {
    return;
  }
  if (*free_bytes < config_.min_free_memory_bytes) {
    PERFISO_LOG(kWarning) << "perfiso: free memory " << *free_bytes << " below floor "
                          << config_.min_free_memory_bytes << ", killing secondary";
    if (platform_->KillSecondary().ok()) {
      ++stats_.memory_kills;
      secondary_killed_ = true;
      if (tracer_ != nullptr) {
        tracer_->Instant("perfiso.memory.kill", track_, platform_->NowNs());
      }
    }
  }
}

void PerfIsoController::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, "perfiso");
  if (io_throttler_ != nullptr) {
    io_throttler_->EnableTracing(tracer, track_);
  }
}

void PerfIsoController::PollIo() {
  if (!active_ || io_throttler_ == nullptr) {
    return;
  }
  ++stats_.io_polls;
  io_throttler_->Poll(platform_->NowNs());
}

void PerfIsoController::AttachToSimulator(Simulator* sim) {
  cpu_task_ = std::make_unique<PeriodicTask>(sim, sim->Now() + config_.poll_interval,
                                             config_.poll_interval,
                                             [this](SimTime) { Poll(); });
  io_task_ = std::make_unique<PeriodicTask>(sim, sim->Now() + config_.io_poll_interval,
                                            config_.io_poll_interval,
                                            [this](SimTime) { PollIo(); });
}

int PerfIsoController::secondary_cores() const {
  if (blind_policy_.has_value()) {
    return blind_policy_->secondary_cores();
  }
  if (config_.cpu_mode == CpuIsolationMode::kStaticCores) {
    return config_.static_secondary_cores;
  }
  return platform_->NumCores();
}

}  // namespace perfiso
