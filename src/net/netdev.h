// NetDev: one machine's NIC, modeled as a pair of serializing links.
//
// The TX side is what a host can actually control and is where PerfIso's
// network isolation lives (§3.2): two strict-priority queues (primary
// preempts secondary at chunk granularity, the qdisc analogue of marking
// batch traffic low-priority) and an egress token bucket that secondary
// chunks must drain before they reach the wire — the static egress cap. The
// RX side is plain FIFO serialization at line rate: once traffic is on the
// wire the fabric does not honor host priorities, which is exactly why the
// egress cap is needed end to end (a network bully hurts its *victims'*
// ingress, not its own egress).
#ifndef PERFISO_SRC_NET_NETDEV_H_
#define PERFISO_SRC_NET_NETDEV_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>

#include "src/net/flow.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/token_bucket.h"

namespace perfiso {

// A store-and-forward serializing element: flows queue, the link transmits
// one chunk at a time at `rate_bps`, and a flow that has sent its last chunk
// leaves through the link's completion sink. Chunking is what makes priority
// preemptive in practice — a primary flow waits at most one secondary chunk,
// never a whole bulk block.
class Link {
 public:
  enum class Discipline {
    kStrictPriority,  // NIC TX: primary queue always served first
    kFifo,            // switch ports / NIC RX: arrival order, class-blind
  };

  // Returns the current secondary egress bucket, or null when uncapped. A
  // provider (rather than a raw pointer) lets PerfIso install/clear the cap
  // at runtime; it is consulted before every secondary chunk.
  using EgressBucketFn = InlineFunction<TokenBucket*(), 16>;
  // Receives each flow whose last byte has left the link, and the time.
  using FlowSink = InlineFunction<void(std::unique_ptr<Flow>, SimTime), 8>;

  Link(Simulator* sim, double rate_bps, int64_t chunk_bytes, Discipline discipline,
       FlowSink sink);

  // A Link may die with a token-starved wake still armed (e.g. a fabric torn
  // down mid-run); the wake captures `this`, so it must not outlive us.
  // Queued flows die with the link.
  ~Link() { sim_->CancelOwned(retry_event_); }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Installs the secondary shaper (NIC TX links, which serve by strict
  // priority, so a token-starved secondary head never blocks primary egress).
  void SetEgressBucketProvider(EgressBucketFn provider) { egress_bucket_ = std::move(provider); }

  // Takes `flow` for serialization; it goes to the sink once all of
  // `flow->bytes` have left the link.
  void Enqueue(std::unique_ptr<Flow> flow);

  // Fault injection (link degradation): chunks *started* while the multiplier
  // is in effect serialize at `fraction` of nominal rate (a chunk already on
  // the wire keeps its original duration). 1.0 restores nominal; the healthy
  // path skips the scaling arithmetic so no-fault runs stay bit-identical.
  void SetRateMultiplier(double fraction) { rate_multiplier_ = fraction; }

  struct LinkStats {
    int64_t bytes_serialized[kNumNetClasses] = {0, 0};
    int64_t flows_completed[kNumNetClasses] = {0, 0};
    int64_t chunks = 0;
    // High-water mark of bytes waiting in the queues — the incast gauge.
    int64_t max_queued_bytes = 0;
    SimDuration busy_ns = 0;
  };
  const LinkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LinkStats{}; }

 private:
  // Picks the queue to serve next per the discipline; -1 when both are empty.
  int PickQueue() const;
  void Pump();
  void OnChunkDone(int queue, int64_t chunk);
  // Nominal rate scaled by the fault multiplier (branch-free on 1.0).
  double EffectiveRate() const {
    return rate_multiplier_ == 1.0 ? rate_bps_ : rate_bps_ * rate_multiplier_;
  }

  Simulator* sim_;
  double rate_bps_;
  double rate_multiplier_ = 1.0;
  int64_t chunk_bytes_;
  Discipline discipline_;
  FlowSink sink_;
  EgressBucketFn egress_bucket_;
  std::array<std::deque<std::unique_ptr<Flow>>, kNumNetClasses> queues_;
  uint64_t next_arrival_seq_ = 0;
  int64_t queued_bytes_ = 0;
  bool busy_ = false;
  // Pending wake for a token-starved secondary head. If a chunk starts first
  // (priority traffic, or PerfIso raised the cap and a re-pump got through),
  // the stale wake is cancelled instead of firing as a no-op; if tokens
  // become due earlier, it is tightened in place.
  EventHandle retry_event_;
  LinkStats stats_;
};

// The two directions of one machine's NIC: strict-priority TX (§3.2's
// low-priority marking of secondary traffic) and FIFO RX.
class NetDev {
 public:
  NetDev(Simulator* sim, double link_rate_bps, int64_t chunk_bytes, Link::FlowSink tx_sink,
         Link::FlowSink rx_sink);

  Link& tx() { return tx_; }
  Link& rx() { return rx_; }
  const Link& tx() const { return tx_; }
  const Link& rx() const { return rx_; }

 private:
  Link tx_;
  Link rx_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_NETDEV_H_
