// IndexServe: a model of the Bing web-index serving node used as the paper's
// primary tenant.
//
// The real service is proprietary; this model reproduces the properties
// PerfIso depends on (§2.1):
//   1. layered, parallel query processing — receive -> parse -> parallel
//      chunk lookups (fan-out) -> rank -> snippet generation -> send;
//   2. millisecond service times with a strict tail (standalone: ~4 ms
//      median, ~12 ms P99, §6.1.1);
//   3. extreme burstiness — a query wakes its whole fan-out within
//      microseconds, so many workers become ready almost simultaneously;
//   4. hedged requests: slow chunk lookups are retried in parallel, which is
//      why the paper observes primary CPU *rising* under interference
//      ("IndexServe tries to compensate ... by starting more workers",
//      §6.1.2);
//   5. SSD reads on index-cache misses (the index slice lives on the striped
//      SSD volume, exclusive to the primary) and asynchronous query logging
//      to the shared HDD volume, with bounded buffering — a saturated HDD
//      eventually backpressures query completion, which is the channel disk
//      bullies hurt the primary through.
//
// Queries time out (client-side) at `timeout`; timed-out queries count as
// dropped and are excluded from the latency distribution, as in the paper.
#ifndef PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_
#define PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/disk/io_scheduler.h"
#include "src/fault/retry.h"
#include "src/sim/machine.h"
#include "src/sim/simulator.h"
#include "src/util/inline_function.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/query_trace.h"

namespace perfiso {

// Well-known I/O owner ids for the primary's traffic.
inline constexpr int kIoOwnerIndexData = 1;  // SSD index reads
inline constexpr int kIoOwnerIndexLog = 2;   // HDD query logging

struct IndexServeConfig {
  // --- CPU stage costs (microseconds, multiplied by the query size factor) --
  double receive_cpu_us = 100;  // network receive path, charged as OS time
  double parse_cpu_us = 200;
  // Query-understanding stage (spell/intent/rewrite), serialized before the
  // fan-out.
  double understand_cpu_us = 500;
  // Chunk lookup cost ~ LogNormal(ln(chunk_cpu_median_us), chunk_cpu_sigma).
  double chunk_cpu_median_us = 210;
  double chunk_cpu_sigma = 0.85;
  double chunk_post_read_cpu_us = 30;  // decompress/score after an SSD read
  // Rank cost ~ LogNormal(ln(rank_cpu_median_us), rank_cpu_sigma).
  double rank_cpu_median_us = 1400;
  double rank_cpu_sigma = 0.40;
  double snippet_cpu_us = 300;
  double send_cpu_us = 100;  // network send path, charged as OS time

  // --- Index cache / SSD ----------------------------------------------------
  double chunk_miss_rate = 0.5;  // fraction of lookups that read the SSD
  int64_t chunk_read_bytes = 64 * 1024;
  // Snippet/document reads are issued sequentially (dependent lookups).
  int snippet_reads = 3;
  int64_t snippet_read_bytes = 64 * 1024;

  // --- Hedging (tail-latency compensation) ----------------------------------
  bool hedging_enabled = true;
  SimDuration hedge_delay = FromMillis(10);
  // At most this fraction of started chunk lookups may be hedged (a budget,
  // as in TPC/DDS-style hedging [15, 17]); prevents hedge storms from
  // melting the server when every lookup is slow.
  double hedge_budget_fraction = 0.1;

  // --- Client timeout & admission -------------------------------------------
  SimDuration timeout = FromMillis(450);
  int max_inflight = 1000;

  // --- Graceful degradation (k-of-n chunk coverage) --------------------------
  // When positive, a per-query deadline timer fires this long after arrival;
  // if the fan-out is still open and at least min_chunk_coverage of the chunks
  // have answered, the query closes its fan-out and proceeds to rank with
  // partial coverage (recorded per query, counted as completed_degraded).
  // 0 disables the timer entirely — no event is scheduled, digests are
  // bit-identical to the pre-degradation behavior.
  SimDuration degrade_deadline = 0;
  double min_chunk_coverage = 0.5;

  // --- Chunk retry (timeout detection + capped exponential backoff) ----------
  // Disabled by default: no per-attempt timers, no RNG draws, no digest
  // drift. When enabled, every chunk attempt arms a timeout; a lost chunk is
  // re-issued after ComputeBackoff(...) unless the backoff would land past
  // the client timeout (suppressed, the deadline/timeout path takes over).
  RetryPolicy chunk_retry;

  // --- HDD logging -----------------------------------------------------------
  int64_t log_bytes_per_query = 2048;
  int64_t log_flush_bytes = 256 * 1024;
  // Completions stall when this much log data is waiting to reach the HDD.
  int64_t log_buffer_cap_bytes = 4 * 1024 * 1024;

  // Fixed working set (index cache): the paper's setup uses ~110 GB.
  int64_t working_set_bytes = 110LL * 1024 * 1024 * 1024;
};

struct QueryResult {
  uint64_t id = 0;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  bool dropped = false;  // timed out, rejected at admission, or lost to a crash
  double latency_ms = 0;
  // Chunk coverage: how much of the fan-out answered before the query closed.
  // Full-coverage completions have chunks_served == chunks_total; degraded
  // completions (k-of-n answers under a deadline) have fewer.
  int chunks_total = 0;
  int chunks_served = 0;
  bool degraded = false;

  double Coverage() const {
    return chunks_total == 0 ? 1.0
                             : static_cast<double>(chunks_served) / static_cast<double>(chunks_total);
  }
};

class IndexServer {
 public:
  using QueryDoneFn = InlineFunction<void(const QueryResult&), 48>;

  // `ssd` may not be null (index reads). `hdd` may be null, disabling the
  // logging path (useful for CPU-only experiments and unit tests).
  IndexServer(SimMachine* machine, IoScheduler* ssd, IoScheduler* hdd,
              const IndexServeConfig& config, uint64_t seed);

  IndexServer(const IndexServer&) = delete;
  IndexServer& operator=(const IndexServer&) = delete;

  // Processes one query; `done` (optional) fires at completion or drop.
  void SubmitQuery(const QueryWork& work, QueryDoneFn done = nullptr);

  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;          // within the timeout (includes degraded)
    int64_t completed_degraded = 0; // subset of completed: closed at partial coverage
    int64_t dropped_timeout = 0;
    int64_t dropped_admission = 0;
    int64_t dropped_crash = 0;      // failed by a crash, or rejected while down
    int64_t hedges_issued = 0;
    int64_t log_stalls = 0;
    int64_t timeouts_detected = 0;  // per-attempt chunk timeouts that fired
    int64_t retries_issued = 0;
    int64_t retry_exhausted = 0;    // chunk timed out with no attempts left
    int64_t retries_suppressed_deadline = 0;  // backoff would land past the deadline
    // Invariant counter (InvariantChecker asserts it stays 0): a query must
    // never reach completion while its server is crashed.
    int64_t completions_while_crashed = 0;
    LatencyRecorder latency_ms;     // completed queries only
    LatencyRecorder coverage;       // per completed query, fraction in [0, 1]

    int64_t TotalDropped() const {
      return dropped_timeout + dropped_admission + dropped_crash;
    }
    double DropFraction() const {
      return submitted == 0 ? 0 : static_cast<double>(TotalDropped()) / submitted;
    }
  };

  const Stats& stats() const { return stats_; }
  // Clears counters/latencies (used to discard warm-up, §5.3).
  void ResetStats();

  // Registers an event track under the machine's tracer process (hedge
  // issues, log stalls). Queries submitted afterwards carry a trace context
  // through every stage: adopted from QueryWork::trace_ctx when the cluster
  // minted one, otherwise minted here with scope "isq" and ended at
  // completion, timeout, or admission drop.
  void EnableTracing(Tracer* tracer, int process);

  // --- Fault injection: process crash / restart ------------------------------
  // Crash models the index-serving process dying: every live query fails
  // exactly once (conservation moves it to dropped_crash), its hedge/retry/
  // deadline timers leave the event queue, and the log pipeline state is
  // lost. New submissions are rejected (dropped_crash) until Restart(). The
  // caller (IndexNodeRig::Crash) also cancels in-flight disk I/O.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  int inflight() const { return inflight_; }
  // Queries that were in flight when ResetStats last ran; they complete (or
  // drop) after the reset without a matching `submitted` tick. Conservation
  // therefore reads: submitted + inflight_at_reset ==
  // completed + dropped_* + inflight.
  int64_t inflight_at_reset() const { return inflight_at_reset_; }
  // Cumulative non-hedge chunk attempts; the hedge budget's denominator.
  int64_t chunks_started() const { return chunks_started_; }
  // Number of occupied query slots. Test hook for the lifetime regression:
  // after the simulator drains, every query has reached a terminal state and
  // released its slot, so this must return to zero.
  int64_t live_query_states() const {
    return static_cast<int64_t>(queries_.size() - free_slots_.size());
  }
  JobId job() const { return job_; }
  SimMachine* machine() const { return machine_; }
  const IndexServeConfig& config() const { return config_; }

 private:
  // Per-chunk fan-out state: completion/hedge flags, attempt count, and the
  // armed retry/hedge timers, one slot per chunk.
  struct ChunkSlot {
    // Armed per-attempt timeout (or pending backoff wait); cancelled when the
    // chunk completes or the query reaches a terminal state. Lifecycle owner:
    // QueryState::CancelTimers cancels every slot timer, so the slots
    // themselves stay trivially destructible (they are reused across queries).
    EventHandle retry_event;  // NOLINT(perfiso-LIFE-001)
    // Armed hedge timer; cancelled the moment the chunk completes (or the
    // query reaches a terminal state), so hedge timers for fast lookups — the
    // overwhelming majority — leave the event queue instead of firing as dead
    // no-ops.
    EventHandle hedge_event;  // NOLINT(perfiso-LIFE-001)
    // Attempts issued (original + retries, hedges excluded); meaningful only
    // when the retry policy is enabled.
    uint8_t attempts = 0;
    bool done = false;
    bool hedged = false;
  };

  // Names one in-flight query: its slot in queries_ and the slot's generation
  // when the query was admitted. Releasing a slot bumps its generation, so an
  // id held by a late callback goes stale instead of naming the slot's next
  // occupant. Callbacks capture ids by value, never pointers into queries_.
  struct QueryId {
    uint32_t slot = 0;
    uint32_t generation = 0;
  };

  // One slot of the query table. Slots are reused across queries; `chunks`
  // keeps its capacity, so the steady-state query path allocates nothing.
  struct QueryState {
    QueryId id;         // generation is the current occupant's
    bool live = false;  // occupied by a non-terminal query
    uint64_t seq = 0;   // admission order; Crash() fails queries in this order
    QueryWork work;
    QueryDoneFn done;
    Rng rng{0};
    SimTime arrival = 0;
    int chunks_left = 0;
    std::vector<ChunkSlot> chunks;  // one per fan-out chunk
    // Degrade-deadline timer (armed only when degrade_deadline > 0).
    EventHandle deadline_event;
    // Set when the deadline closed the fan-out at partial coverage: late chunk
    // completions are ignored from then on.
    bool fanout_closed = false;
    bool degraded = false;
    int snippet_reads_left = 0;
    uint64_t trace_ctx = 0;
    bool owns_trace = false;  // minted here (standalone) vs adopted from the TLA

    // Pulls every armed hedge, retry and deadline timer out of the event
    // queue; called when the fan-out closes and on every terminal transition.
    void CancelTimers(Simulator* sim);
  };

  // Takes a free slot (growing the table if none is free) for a new query.
  QueryState& AcquireSlot();
  // The live query `id` names, or nullptr if the id is stale (the query
  // completed, expired or crashed): a late callback's lookup is then a no-op.
  QueryState* Find(QueryId id);
  // Cancels the query's timers, frees its slot and returns its completion
  // callback. Only Terminate calls it.
  QueryDoneFn Release(QueryState& q);
  enum class Outcome { kCompleted, kTimedOut, kRejected, kCrashed };
  // The one terminal transition of every query, admitted or refused: builds
  // its result, counts the outcome, ends an owned trace, releases the slot
  // and calls `done` last. A closed-loop client resubmits from `done`, so the
  // table may grow during the call and `q` must not be touched afterwards.
  // kCompleted still drops a query that finished past the client timeout.
  void Terminate(QueryState& q, Outcome outcome);
  // Abandons the query if it is past its deadline; returns true if it did
  // (the slot is then released).
  bool ExpireIfOverdue(QueryState& q);
  // Arms the per-attempt chunk timeout (retry must be enabled).
  void ArmRetryTimer(QueryState& q, int chunk);
  // That timeout fired: re-issue the chunk after a backoff, if allowed.
  void OnChunkTimeout(QueryState& q, int chunk);
  // Degrade-deadline fired: if coverage has reached the k-of-n floor, close
  // the fan-out and rank with partial results.
  void MaybeDegrade(QueryState& q);
  void StartParse(QueryState& q);
  void StartFanout(QueryState& q);
  void StartChunk(QueryState& q, int chunk, bool is_hedge);
  void ChunkDone(QueryState& q, int chunk);
  void StartRank(QueryState& q);
  void StartSnippets(QueryState& q);
  // Issues one dependent snippet read; its completion submits the next.
  void SubmitSnippetRead(QueryState& q);
  void FinishQuery(QueryState& q);
  void AppendLog(const QueryState& q);
  void MaybeFlushLog();

  SimMachine* machine_;
  IoScheduler* ssd_;
  IoScheduler* hdd_;
  Tracer* tracer_ = nullptr;
  int32_t track_ = Tracer::kNoTrack;
  IndexServeConfig config_;
  uint64_t seed_;
  JobId job_;
  Stats stats_;
  int inflight_ = 0;
  int64_t inflight_at_reset_ = 0;
  int64_t chunks_started_ = 0;  // cumulative, for the hedge budget
  bool crashed_ = false;
  // The query table: the server is the single owner of every in-flight
  // query. Freed slots are reused LIFO.
  std::vector<QueryState> queries_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;

  int64_t log_buffered_bytes_ = 0;   // accumulated, not yet in a flush
  int64_t log_inflight_bytes_ = 0;   // handed to the HDD, not yet durable
  std::deque<QueryId> log_waiters_;  // completions stalled on log backpressure
};

}  // namespace perfiso

#endif  // PERFISO_SRC_INDEXSERVE_INDEX_SERVER_H_
