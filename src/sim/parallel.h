// Conservative time-windowed parallel simulation (PDES) over Simulator
// partitions.
//
// A ParallelSimulation owns K Simulators ("partitions") that advance in
// lockstep windows of fixed width W. Within a window every partition runs its
// own two-band scheduler independently — on a worker thread when more than
// one is configured — and any event destined for *another* partition is not
// scheduled directly but deposited into a per-(src, dst) mailbox via Post().
// At the window barrier the mailboxes are merged single-threaded into the
// destination simulators in a deterministic total order, and the next window
// begins.
//
// Correctness (the conservative-lookahead argument, DESIGN.md §10): the
// caller guarantees every cross-partition message posted at local time t
// carries a delivery time >= t + L, where L is the minimum cross-partition
// latency (for the cluster fabric, `FabricConfig::base_latency` — one
// propagation hop).
// With W <= L, a message posted anywhere inside window [w, w + W) delivers at
// >= w + W, i.e. never inside the window that produced it, so running the
// partitions of one window concurrently can never miss or reorder a message
// a peer would have delivered mid-window. Post() enforces this bound.
//
// Determinism: results are a pure function of (inputs, partition count) and
// are bit-identical for ANY worker thread count, including 1:
//   * partitions share no mutable state — each outbox row is written only by
//     its owning partition's thread, and the merge runs with all workers
//     parked at the barrier;
//   * the merge orders messages by (delivery time, source partition, posting
//     order within the source), a total order independent of thread
//     interleaving; merged messages draw their (time, seq) from the
//     destination simulator in that same order;
//   * window boundaries are derived from simulated state only (fixed width,
//     plus a skip-ahead over provably empty windows computed from
//     Simulator::NextEventTime() at the barrier).
//
// With partitions == 1 no windows, threads, or mailboxes exist at all —
// RunUntil forwards to the lone Simulator, so a 1-partition run is the
// plain sequential engine, bit for bit.
#ifndef PERFISO_SRC_SIM_PARALLEL_H_
#define PERFISO_SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/sim_time.h"

namespace perfiso {

class ParallelSimulation {
 public:
  struct Options {
    // Number of partitions (independent Simulators). 1 = plain sequential.
    int partitions = 1;
    // Lockstep window width W; must be positive when partitions > 1 and at
    // most the minimum cross-partition delivery latency (the PDES lookahead).
    SimDuration window = 0;
    // Worker threads: 0 = one per partition (capped at the partition count),
    // otherwise capped to [1, partitions]. Any value yields identical results.
    int threads = 0;
  };

  struct Stats {
    uint64_t windows_run = 0;        // lockstep windows executed
    uint64_t messages_posted = 0;    // cross-partition mailbox messages
    uint64_t setup_posts = 0;        // Post() calls outside a window (direct)
    uint64_t merge_batches = 0;      // barrier merges that moved >= 1 message
  };

  explicit ParallelSimulation(const Options& options);
  ~ParallelSimulation();

  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  int num_partitions() const { return static_cast<int>(sims_.size()); }
  int num_threads() const { return num_threads_; }
  SimDuration window() const { return window_; }

  Simulator& sim(int partition) { return *sims_[static_cast<size_t>(partition)]; }
  const Simulator& sim(int partition) const { return *sims_[static_cast<size_t>(partition)]; }

  // Delivers `fn` on partition `dst` at absolute time `deliver_time`.
  //   * From inside a window, posting to another partition: deposited into
  //     the caller's mailbox row and merged at the barrier. `deliver_time`
  //     must be at or after the end of the current window (the lookahead
  //     contract above); violations abort in debug builds and are clamped to
  //     the window end in release builds (a clamp means the configured window
  //     exceeds the real latency floor — a setup bug).
  //   * To the calling thread's own partition, or outside a window (setup /
  //     between RunUntil calls): scheduled directly, no constraint.
  // The message owns `fn` (and whatever it captures, e.g. a fabric flow)
  // until it fires; a ParallelSimulation destroyed first destroys it unrun.
  void Post(int dst, SimTime deliver_time, EventCallback fn);

  // Runs every partition to `until` inclusive (same contract as
  // Simulator::RunUntil) in lockstep windows, merging mailboxes at each
  // barrier. Callable repeatedly with increasing `until` (warmup, then
  // measurement); between calls all partitions sit at exactly `until` and
  // single-threaded access to any partition state is safe.
  void RunUntil(SimTime until);

  const Stats& stats() const { return stats_; }

  // Sum of events executed across partitions (throughput accounting).
  uint64_t TotalEventsExecuted() const;

 private:
  struct Mailbox;  // per-(src, dst) message buffer, owned by src's thread
  struct Workers;  // thread pool + barriers (absent when 1 thread suffices)

  // Earliest pending timestamp across all partitions (mailboxes are empty at
  // the barrier, where this is called). Simulator::kNoPendingEvent when idle.
  SimTime GlobalNextEventTime() const;
  // Runs every partition to `cap`: inline when single-threaded, else one
  // barrier round trip through the worker pool.
  void RunPartitionsTo(SimTime cap);
  void RunAssignedPartitions(int worker_index, SimTime cap);
  // Schedules all mailboxed messages into their destinations in the
  // deterministic (deliver_time, src, posting order) total order.
  void MergeMailboxes();

  SimDuration window_ = 0;
  int num_threads_ = 1;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::unique_ptr<Mailbox>> outboxes_;  // K*K, row-major [src][dst]
  std::unique_ptr<Workers> workers_;
  // Exclusive end of the window currently executing (the Post() lookahead
  // floor); only read by partition threads while they run, written at the
  // barrier before they are released.
  SimTime window_end_ = 0;
  bool in_window_ = false;
  Stats stats_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_SIM_PARALLEL_H_
