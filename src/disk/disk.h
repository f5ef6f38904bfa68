// Disk device and striped-volume models.
//
// The paper's testbed has two striped volumes: 4x SSD (exclusive to
// IndexServe's index slice) and 4x HDD (IndexServe logging, shared with the
// secondary's HDFS traffic and the DiskSPD bully). A device serves requests
// with a fixed per-op latency plus a transfer time, with a seek penalty for
// non-sequential HDD accesses, and bounded internal concurrency (NCQ-style
// for SSDs, single-actuator for HDDs).
#ifndef PERFISO_SRC_DISK_DISK_H_
#define PERFISO_SRC_DISK_DISK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/inline_function.h"
#include "src/util/sim_time.h"
#include "src/util/stats.h"

namespace perfiso {

class IoScheduler;
class StripedVolume;

enum class IoOp { kRead, kWrite };

// Static device parameters.
struct DiskSpec {
  std::string model;
  SimDuration read_latency = FromMicros(80);
  SimDuration write_latency = FromMicros(60);
  SimDuration seek_penalty = 0;  // added for non-sequential accesses
  double bandwidth_bps = 550e6;
  int concurrency = 8;  // requests serviced in parallel inside the device

  // A 500 GB SATA SSD, as in the paper's 4x SSD stripe.
  static DiskSpec Ssd();
  // A 2 TB 7200rpm HDD, as in the paper's 4x HDD stripe.
  static DiskSpec Hdd();
};

// One I/O request. `owner` tags the submitting process for per-tenant
// accounting and throttling. The completion callback runs in simulation time.
//
// The layers a request passes through (IoScheduler, StripedVolume) do not
// wrap `on_complete`; they record what their accounting needs here, and the
// serving drive settles every layer in order when the request completes (see
// DiskDevice::Complete).
struct IoRequest {
  // Sized for the fattest caller, the index server's chunk read
  // [this, query id, chunk, size factor, trace context].
  using CompletionFn = InlineFunction<void(SimTime), 48>;

  int owner = 0;
  IoOp op = IoOp::kRead;
  int64_t bytes = 4096;
  bool sequential = false;
  CompletionFn on_complete;
  SimTime submit_time = 0;  // filled by the volume on submission
  // Query trace this request belongs to (0 = untraced): its queueing and
  // service become disk-queue/service spans on the serving drive's track.
  uint64_t trace_ctx = 0;
  // Set by the IoScheduler that admitted the request (null when submitted
  // straight to a volume or drive), with the time it was admitted.
  IoScheduler* scheduler = nullptr;
  SimTime sched_submit_time = 0;
};

// Cumulative per-owner I/O accounting.
struct OwnerIoStats {
  int64_t ops = 0;
  int64_t bytes = 0;
  LatencyRecorder latency_us;  // submit-to-complete
};

class DiskDevice {
 public:
  // `volume`, when set, is the stripe this drive belongs to; its per-owner
  // accounting is settled on every completion.
  DiskDevice(Simulator* sim, DiskSpec spec, std::string name, StripedVolume* volume = nullptr);

  DiskDevice(const DiskDevice&) = delete;
  DiskDevice& operator=(const DiskDevice&) = delete;

  // Enqueues a request; it is serviced FIFO subject to device concurrency.
  void Submit(IoRequest request);

  // Device-reset model (power loss / hot unplug, for failure-injection
  // scenarios): drops every queued request and cancels every in-flight
  // completion eagerly — no completion callback runs, no layer's accounting
  // is settled, and the cancelled events leave the simulator queue. Returns
  // the number of dropped requests.
  int CancelAll();

  size_t QueueDepth() const { return queue_.size() + static_cast<size_t>(active_); }
  int64_t CompletedOps() const { return completed_ops_; }
  int64_t CompletedBytes() const { return completed_bytes_; }
  SimDuration BusyTime() const { return busy_ns_; }
  const DiskSpec& spec() const { return spec_; }

  // Service time for a request on an otherwise-idle device.
  SimDuration ServiceTime(const IoRequest& request) const;

  // Fault injection: scales the service time of requests *started* while the
  // multiplier is in effect (in-flight requests keep their original service
  // time). 1.0 — the default — is special-cased to skip the scaling
  // arithmetic entirely, so a never-degraded device is bit-identical to one
  // without the feature.
  void SetLatencyMultiplier(double multiplier) { latency_multiplier_ = multiplier; }

  // Registers this drive as a track of `process` (its volume); traced
  // requests then report queue/service spans there.
  void EnableTracing(Tracer* tracer, int process);

 private:
  void TryStart();
  size_t AllocInflightSlot();
  // Completion of the request in `slot`. Order: the drive's own counters,
  // the volume's per-owner accounting, the admitting scheduler's accounting
  // (which frees its outstanding slot), the user callback, the scheduler's
  // next dispatch round, then this drive's next start.
  void Complete(size_t slot);

  Simulator* sim_;
  DiskSpec spec_;
  std::string name_;
  StripedVolume* volume_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  std::deque<IoRequest> queue_;
  // Requests inside the device: the request itself, its completion event
  // (so CancelAll can pull it out of the simulator queue; the event captures
  // only [this, slot]) and the dispatch time + service charged to busy_ns_
  // up front (the unserved remainder is rolled back on cancel). Slots
  // recycle via free_slots_.
  struct InFlight {
    // Lifecycle owned by DiskDevice: completion resets the slot, CancelAll
    // pulls every armed event before reuse.
    EventHandle done_event;  // NOLINT(perfiso-LIFE-001)
    SimTime started = 0;
    SimDuration service = 0;
    IoRequest request;
  };
  std::vector<InFlight> inflight_;
  std::vector<size_t> free_slots_;
  int active_ = 0;
  int64_t completed_ops_ = 0;
  int64_t completed_bytes_ = 0;
  SimDuration busy_ns_ = 0;
  double latency_multiplier_ = 1.0;
};

// N identical devices in a stripe; requests are distributed round-robin
// (stripe unit >= request size, so a request touches one device).
class StripedVolume {
 public:
  StripedVolume(Simulator* sim, const DiskSpec& spec, int num_drives, std::string name);

  // Drives hold a pointer back to their volume.
  StripedVolume(const StripedVolume&) = delete;
  StripedVolume& operator=(const StripedVolume&) = delete;

  void Submit(IoRequest request);

  // Resets every drive (see DiskDevice::CancelAll); returns dropped requests.
  int CancelAll();

  // Applies a fault-injection latency multiplier to every drive.
  void SetLatencyMultiplier(double multiplier);

  int num_drives() const { return static_cast<int>(drives_.size()); }
  const std::string& name() const { return name_; }
  size_t TotalQueueDepth() const;
  int64_t CompletedOps() const;
  int64_t CompletedBytes() const;

  // Per-owner counters (the PerfIso I/O throttler polls these to compute
  // per-process IOPS with a moving average, §4.1).
  const OwnerIoStats& OwnerStats(int owner) const;

  // Aggregate nominal bandwidth of the stripe, bytes/sec.
  double NominalBandwidth() const;

  // Registers the volume as a tracer process with one track per drive;
  // returns the process id so a fronting scheduler can add its own track.
  int EnableTracing(Tracer* tracer);

 private:
  friend class DiskDevice;
  // Per-owner accounting for a completed request (called by the drive).
  void SettleCompleted(const IoRequest& request, SimTime now);

  Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<DiskDevice>> drives_;
  size_t next_drive_ = 0;
  mutable std::map<int, OwnerIoStats> owner_stats_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_DISK_DISK_H_
