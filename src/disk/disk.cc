#include "src/disk/disk.h"

#include <cassert>
#include <utility>

#include "src/disk/io_scheduler.h"

namespace perfiso {

DiskSpec DiskSpec::Ssd() {
  DiskSpec spec;
  spec.model = "ssd-500g";
  spec.read_latency = FromMicros(80);
  spec.write_latency = FromMicros(60);
  spec.seek_penalty = 0;
  spec.bandwidth_bps = 550e6;
  spec.concurrency = 8;
  return spec;
}

DiskSpec DiskSpec::Hdd() {
  DiskSpec spec;
  spec.model = "hdd-2t-7200";
  spec.read_latency = FromMicros(500);
  spec.write_latency = FromMicros(500);
  spec.seek_penalty = FromMillis(7);
  spec.bandwidth_bps = 160e6;
  spec.concurrency = 1;
  return spec;
}

DiskDevice::DiskDevice(Simulator* sim, DiskSpec spec, std::string name, StripedVolume* volume)
    : sim_(sim), spec_(std::move(spec)), name_(std::move(name)), volume_(volume) {
  assert(spec_.concurrency > 0 && spec_.bandwidth_bps > 0);
}

SimDuration DiskDevice::ServiceTime(const IoRequest& request) const {
  SimDuration service =
      request.op == IoOp::kRead ? spec_.read_latency : spec_.write_latency;
  if (!request.sequential) {
    service += spec_.seek_penalty;
  }
  service += static_cast<SimDuration>(static_cast<double>(request.bytes) /
                                      spec_.bandwidth_bps * kSecond);
  if (latency_multiplier_ != 1.0) {
    // Only degraded devices take this branch: the healthy path never runs the
    // scaling arithmetic, keeping no-fault digests bit-identical.
    service = static_cast<SimDuration>(static_cast<double>(service) * latency_multiplier_);
  }
  return service;
}

void DiskDevice::Submit(IoRequest request) {
  queue_.push_back(std::move(request));
  TryStart();
}

void DiskDevice::EnableTracing(Tracer* tracer, int process) {
  tracer_ = tracer;
  track_ = tracer->RegisterTrack(process, name_);
}

size_t DiskDevice::AllocInflightSlot() {
  if (!free_slots_.empty()) {
    const size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  inflight_.emplace_back();
  return inflight_.size() - 1;
}

void DiskDevice::TryStart() {
  while (active_ < spec_.concurrency && !queue_.empty()) {
    const size_t slot = AllocInflightSlot();
    InFlight& inflight = inflight_[slot];
    inflight.request = std::move(queue_.front());
    queue_.pop_front();
    const IoRequest& request = inflight.request;
    const SimDuration service = ServiceTime(request);
    ++active_;
    busy_ns_ += service;
    inflight.started = sim_->Now();
    inflight.service = service;
    if (tracer_ != nullptr && request.trace_ctx != 0 &&
        sim_->Now() > request.submit_time) {
      tracer_->Span(request.trace_ctx, "disk.queue", SpanCategory::kDiskQueue,
                    track_, request.submit_time, sim_->Now());
    }
    inflight.done_event = sim_->ScheduleAfter(service, [this, slot] { Complete(slot); });
  }
}

void DiskDevice::Complete(size_t slot) {
  const SimTime now = sim_->Now();
  const SimTime started = inflight_[slot].started;
  IoRequest request = std::move(inflight_[slot].request);
  inflight_[slot] = InFlight{};
  free_slots_.push_back(slot);
  --active_;
  ++completed_ops_;
  completed_bytes_ += request.bytes;
  if (tracer_ != nullptr && request.trace_ctx != 0) {
    tracer_->Span(request.trace_ctx, "disk.service", SpanCategory::kService, track_, started,
                  now);
  }
  if (volume_ != nullptr) {
    volume_->SettleCompleted(request, now);
  }
  IoScheduler* scheduler = request.scheduler;
  if (scheduler != nullptr) {
    scheduler->SettleCompleted(request, now);
  }
  if (request.on_complete) {
    request.on_complete(now);
  }
  if (scheduler != nullptr) {
    scheduler->Pump();
  }
  TryStart();
}

int DiskDevice::CancelAll() {
  int dropped = static_cast<int>(queue_.size());
  queue_.clear();
  for (size_t slot = 0; slot < inflight_.size(); ++slot) {
    if (sim_->Cancel(inflight_[slot].done_event)) {
      // Roll back the unserved remainder of the charged service time.
      busy_ns_ -= inflight_[slot].started + inflight_[slot].service - sim_->Now();
      inflight_[slot] = InFlight{};
      free_slots_.push_back(slot);
      --active_;
      ++dropped;
    }
  }
  assert(active_ == 0);
  return dropped;
}

StripedVolume::StripedVolume(Simulator* sim, const DiskSpec& spec, int num_drives,
                             std::string name)
    : sim_(sim), name_(std::move(name)) {
  assert(num_drives > 0);
  drives_.reserve(static_cast<size_t>(num_drives));
  for (int i = 0; i < num_drives; ++i) {
    drives_.push_back(
        std::make_unique<DiskDevice>(sim, spec, name_ + "-d" + std::to_string(i), this));
  }
}

void StripedVolume::Submit(IoRequest request) {
  request.submit_time = sim_->Now();
  drives_[next_drive_]->Submit(std::move(request));
  next_drive_ = (next_drive_ + 1) % drives_.size();
}

void StripedVolume::SettleCompleted(const IoRequest& request, SimTime now) {
  OwnerIoStats& stats = owner_stats_[request.owner];
  ++stats.ops;
  stats.bytes += request.bytes;
  stats.latency_us.Add(ToMicros(now - request.submit_time));
}

int StripedVolume::CancelAll() {
  int dropped = 0;
  for (const auto& drive : drives_) {
    dropped += drive->CancelAll();
  }
  return dropped;
}

void StripedVolume::SetLatencyMultiplier(double multiplier) {
  for (const auto& drive : drives_) {
    drive->SetLatencyMultiplier(multiplier);
  }
}

size_t StripedVolume::TotalQueueDepth() const {
  size_t depth = 0;
  for (const auto& drive : drives_) {
    depth += drive->QueueDepth();
  }
  return depth;
}

int64_t StripedVolume::CompletedOps() const {
  int64_t ops = 0;
  for (const auto& drive : drives_) {
    ops += drive->CompletedOps();
  }
  return ops;
}

int64_t StripedVolume::CompletedBytes() const {
  int64_t bytes = 0;
  for (const auto& drive : drives_) {
    bytes += drive->CompletedBytes();
  }
  return bytes;
}

const OwnerIoStats& StripedVolume::OwnerStats(int owner) const { return owner_stats_[owner]; }

int StripedVolume::EnableTracing(Tracer* tracer) {
  const int pid = tracer->RegisterProcess(name_);
  for (const auto& drive : drives_) {
    drive->EnableTracing(tracer, pid);
  }
  return pid;
}

double StripedVolume::NominalBandwidth() const {
  return drives_.empty() ? 0 : drives_[0]->spec().bandwidth_bps * num_drives();
}

}  // namespace perfiso
