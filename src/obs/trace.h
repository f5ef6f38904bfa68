// Per-query distributed tracing over simulated time.
//
// A query acquires a trace context (a fresh uint64 minted by BeginTrace) at
// admission and threads it through every layer it touches: TLA fan-out →
// fabric flows → index-server stages → IoScheduler/DiskDevice → hedge/retry.
// Each layer reports spans — named sim-time intervals tagged with a resource
// track and an attribution category — and the tracer folds them into a
// per-query critical-path breakdown (TailAttribution) at EndTrace.
//
// Contract with the simulation (DESIGN.md §7):
//  * Passive: the tracer never schedules events, never draws from an RNG,
//    and span recording is plain vector appends. Golden digests are
//    bit-identical with tracing on or off.
//  * Attribution is computed for every query (it is cheap); sampling only
//    decides which queries keep their full span lists for export.
//  * Span and instant names are lowercase dot-separated literals, enforced
//    by perfiso_lint rule OBS-001.
#ifndef PERFISO_SRC_OBS_TRACE_H_
#define PERFISO_SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/sim_time.h"

namespace perfiso {

// Attribution categories, in ascending critical-path priority: when spans of
// several categories cover the same instant of a query's lifetime, the
// instant is attributed to the highest-priority one (service beats the queue
// wait that overlaps it on another chunk).
enum class SpanCategory : uint8_t {
  kCpuWait = 0,        // runnable but waiting for a core
  kDiskQueue = 1,      // queued in the IO scheduler or device
  kNetTransit = 2,     // propagation delay between racks
  kSerialization = 3,  // bytes moving through a NIC or link
  kService = 4,        // actually executing on a core or drive
};
inline constexpr int kNumSpanCategories = 5;
const char* SpanCategoryName(SpanCategory category);

// Per-query critical-path breakdown in milliseconds. The five categories
// plus `other_ms` (lifetime covered by no span: admission gaps, hedge
// timers, log-buffer stalls) sum exactly to the query latency.
struct TailAttribution {
  double cpu_wait_ms = 0;
  double disk_queue_ms = 0;
  double net_transit_ms = 0;
  double serialization_ms = 0;
  double service_ms = 0;
  double other_ms = 0;

  double Total() const {
    return cpu_wait_ms + disk_queue_ms + net_transit_ms + serialization_ms +
           service_ms + other_ms;
  }
  double& ByCategory(SpanCategory category);
  void Accumulate(const TailAttribution& other);
};

// One recorded span: interned name, category, resource track, sim interval.
struct SpanRecord {
  uint32_t name_id = 0;
  SpanCategory category = SpanCategory::kService;
  int32_t track = -1;  // kNoTrack renders on the query row
  SimTime start = 0;
  SimTime end = 0;
};

// A query whose full span list survived sampling.
struct RetainedTrace {
  uint64_t ctx = 0;
  uint32_t scope_id = 0;  // interned BeginTrace scope name
  SimTime begin = 0;
  SimTime end = 0;
  double latency_ms = 0;
  bool dropped = false;  // timed out / load-shed rather than completed
  TailAttribution attribution;
  std::vector<SpanRecord> spans;
};

// Lightweight record kept for *every* traced query, retained or not; the
// P99-cohort attribution tables aggregate over these.
struct TraceSummary {
  uint64_t ctx = 0;
  uint32_t scope_id = 0;
  SimTime begin = 0;
  double latency_ms = 0;
  bool dropped = false;
  TailAttribution attribution;
};

// A point event on a resource track (controller decisions, hedge issues,
// query arrivals).
struct InstantRecord {
  uint32_t name_id = 0;
  int32_t track = -1;
  SimTime at = 0;
};

// Which queries keep their span lists for export.
enum class TraceSampling : uint8_t {
  kAll = 0,        // every query (bounded by max_events)
  kSlowestK = 1,   // the k highest-latency queries seen so far
};

class Tracer {
 public:
  static constexpr int32_t kNoTrack = -1;

  struct Options {
    TraceSampling sampling = TraceSampling::kAll;
    int slowest_k = 64;
    // Cap on total retained span records across all retained traces; new
    // traces are dropped (and counted) once reached.
    int64_t max_events = 1'000'000;
  };

  explicit Tracer(const Options& options);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // -- Topology. Register once at rig construction; ids are dense.
  int RegisterProcess(const std::string& name);                 // Perfetto pid
  int RegisterTrack(int process, const std::string& name);      // Perfetto tid

  // -- Recording (hot path; all O(1) appends).
  // Mints a fresh context for one query. `scope` names the query class
  // ("isq" for index-server queries, "tla" for cluster-level requests).
  uint64_t BeginTrace(const char* scope, SimTime at);
  // Reports a completed interval of `ctx`'s lifetime. Unknown contexts are
  // counted and ignored (a hedge completing after its query ended).
  void Span(uint64_t ctx, const char* name, SpanCategory category, int32_t track,
            SimTime start, SimTime end);
  void Instant(const char* name, int32_t track, SimTime at);
  // Ends `ctx`: computes attribution, records the summary, and retains the
  // span list if sampling selects it.
  void EndTrace(uint64_t ctx, SimTime at, bool dropped);

  // -- Export surface.
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::string>& process_names() const { return process_names_; }
  struct TrackInfo {
    int process = 0;
    std::string name;
  };
  const std::vector<TrackInfo>& tracks() const { return tracks_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  const std::vector<TraceSummary>& summaries() const { return summaries_; }
  // Retained traces in a deterministic order (ascending latency for
  // slowest-k, completion order otherwise).
  std::vector<const RetainedTrace*> Retained() const;

  struct Stats {
    uint64_t begun = 0;
    uint64_t ended = 0;
    uint64_t retained = 0;
    uint64_t spans = 0;
    uint64_t orphan_spans = 0;    // span/end for a context no longer active
    uint64_t dropped_traces = 0;  // not retained (sampling or max_events)
    uint64_t dropped_instants = 0;
  };
  const Stats& stats() const { return stats_; }

  // Computes the critical-path breakdown of [begin, end] from `spans` by a
  // priority interval sweep (exposed for tests).
  static TailAttribution ComputeAttribution(SimTime begin, SimTime end,
                                            const std::vector<SpanRecord>& spans);

 private:
  struct ActiveTrace {
    uint32_t scope_id = 0;
    SimTime begin = 0;
    std::vector<SpanRecord> spans;
  };

  uint32_t InternName(const char* name);
  void Retain(RetainedTrace trace);

  Options options_;
  uint64_t next_ctx_ = 1;
  int64_t retained_events_ = 0;
  std::map<uint64_t, ActiveTrace> active_;
  // Keyed by latency so slowest-k eviction is O(log n); equal keys keep
  // insertion order, making eviction deterministic.
  std::multimap<double, RetainedTrace> retained_;
  std::vector<TraceSummary> summaries_;
  std::vector<InstantRecord> instants_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<std::string> process_names_;
  std::vector<TrackInfo> tracks_;
  Stats stats_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_OBS_TRACE_H_
