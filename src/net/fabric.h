// Fabric: the cluster network connecting every machine's NetDev.
//
// Topology is the classic two-tier datacenter fabric: machines attach to a
// top-of-rack switch in groups of `machines_per_rack`; each ToR connects to
// the core over an uplink whose capacity is the rack's aggregate NIC rate
// divided by `uplink_oversubscription` (an oversubscribed fabric, the normal
// cost-saving design). A flow from A to B serializes at A's NIC TX (priority
// queues + egress shaping), crosses the rack uplinks when A and B sit in
// different racks, pays the propagation delay, serializes again at B's NIC RX
// (FIFO — this is where MLA fan-in becomes genuine incast), and then fires
// its delivery callback. Replaces the old closed-form
// `base_latency + bytes/bandwidth` NetworkSpec term in src/cluster/.
//
// Partitioned mode: constructed over a ParallelSimulation, each endpoint (and
// each rack — racks never span partitions) lives on the Simulator of the
// partition it was attached to. Flows whose src and dst share a partition run
// entirely on that partition's thread, exactly as in sequential mode.
// Cross-partition flows hand off after the source-side hops via
// ParallelSimulation::Post with a delivery timestamp `now + base_latency`:
// the propagation delay is the minimum cross-partition latency, i.e. the PDES
// lookahead that makes conservative lockstep windows sound (DESIGN.md §10).
#ifndef PERFISO_SRC_NET_FABRIC_H_
#define PERFISO_SRC_NET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/flow.h"
#include "src/net/netdev.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace perfiso {

class ParallelSimulation;

// Every tunable of the fabric (absorbs the old cluster NetworkSpec: the RPC
// payload sizes ride along so cluster code has a single network config).
struct FabricConfig {
  double link_rate_bps = 10e9 / 8;       // 10 GbE per machine NIC, in bytes/s
  double uplink_oversubscription = 4.0;  // rack NIC capacity / ToR uplink capacity
  int machines_per_rack = 16;
  SimDuration base_latency = FromMicros(120);  // one-way propagation + switching
  int64_t chunk_bytes = 64 * 1024;             // serialization/preemption granularity

  // RPC payload sizes used by the cluster layers (formerly NetworkSpec).
  int64_t request_bytes = 2 * 1024;
  int64_t leaf_response_bytes = 16 * 1024;
  int64_t final_response_bytes = 32 * 1024;

  // Rejects non-physical settings; the Fabric constructor aborts on them.
  // base_latency must be strictly positive: besides being the propagation
  // delay, it is the PDES lookahead for partitioned runs — zero would mean
  // zero-width lockstep windows and a livelocked window loop.
  Status Validate() const;
};

class Fabric {
 public:
  Fabric(Simulator* sim, const FabricConfig& config);
  // Partitioned fabric: endpoints are attached to partitions and
  // cross-partition flows ride the mailbox protocol. `psim` must outlive the
  // fabric.
  Fabric(ParallelSimulation* psim, const FabricConfig& config);

  // Attaches one machine to `partition`; returns its endpoint id (dense,
  // starting at 0). Rack membership is by attach order *within the
  // partition*: a rack only ever holds machines of one partition, so ToR
  // links never need cross-partition scheduling. With the single-Simulator
  // constructor (everything is partition 0) this reduces to the historical
  // rule: ids [k*R, (k+1)*R) share rack k.
  int AttachMachine(const std::string& name, int partition = 0);

  // Installs the secondary egress shaper for an endpoint's NIC TX. The
  // provider is consulted per chunk, so PerfIso can install/clear the cap at
  // runtime through the platform's token bucket.
  void SetEgressBucketProvider(int endpoint, Link::EgressBucketFn provider);

  // Sends `bytes` from `src` to `dst` and fires `done` when the last byte
  // arrives. src == dst delivers immediately (loopback skips the NIC).
  // `trace_ctx` ties the flow to a query trace (0 = untraced). In partitioned
  // mode this must be called from src's partition (or during setup); `done`
  // fires on dst's partition; a flow still in flight at teardown dies unrun.
  void Send(int src, int dst, int64_t bytes, NetClass net_class, Flow::DeliveredFn done,
            uint64_t trace_ctx = 0);

  // Registers fabric tracks (per-endpoint NIC tx/rx, per-rack uplinks) with
  // the tracer; traced flows then report per-hop serialization/transit spans.
  // Call after all machines are attached. Sequential mode only.
  void EnableTracing(Tracer* tracer);

  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }
  int num_racks() const { return static_cast<int>(racks_.size()); }
  NetDev& netdev(int endpoint) { return *endpoints_[static_cast<size_t>(endpoint)]->dev; }
  Link& rack_uplink(int rack) { return *racks_[static_cast<size_t>(rack)]->up; }
  Link& rack_downlink(int rack) { return *racks_[static_cast<size_t>(rack)]->down; }

  // --- Stats -----------------------------------------------------------------

  struct EndpointStats {
    int64_t bytes_sent[kNumNetClasses] = {0, 0};
    int64_t bytes_received[kNumNetClasses] = {0, 0};
    int64_t flows_sent[kNumNetClasses] = {0, 0};
    int64_t flows_delivered[kNumNetClasses] = {0, 0};
  };
  const EndpointStats& endpoint_stats(int endpoint) const {
    return endpoints_[static_cast<size_t>(endpoint)]->stats;
  }
  // Flow completion time (submit to last byte delivered), in milliseconds.
  // Samples are recorded per destination endpoint (so partitions never share
  // a recorder) and merged in endpoint order here; call only while the
  // simulation is quiescent.
  LatencyRecorder FlowLatencyMs(NetClass net_class) const;
  int64_t flows_in_flight() const;
  void ResetStats();

 private:
  struct Endpoint {
    std::string name;
    int rack = 0;
    int partition = 0;
    Simulator* sim = nullptr;  // the partition's simulator
    std::unique_ptr<NetDev> dev;
    EndpointStats stats;
    // Per-endpoint flow id sequence: ids stay deterministic per source no
    // matter how partition threads interleave. Layout: src id in the high
    // bits, per-source sequence below.
    uint64_t next_flow_seq = 0;
    // Lifetime totals, deliberately NOT cleared by ResetStats so
    // flows_in_flight() stays correct across a mid-run stats reset.
    int64_t lifetime_flows_sent = 0;
    int64_t lifetime_flows_delivered = 0;
    LatencyRecorder flow_latency_ms[kNumNetClasses];
    int32_t tx_track = Tracer::kNoTrack;
    int32_t rx_track = Tracer::kNoTrack;
  };
  struct Rack {
    int partition = 0;
    int machines = 0;  // attached so far; a rack closes at machines_per_rack
    std::unique_ptr<Link> up;    // rack -> core
    std::unique_ptr<Link> down;  // core -> rack
    int32_t up_track = Tracer::kNoTrack;
    int32_t down_track = Tracer::kNoTrack;
  };

  Simulator* SimFor(int partition);
  // Every link's completion sink: traces the finished link, then advances.
  Link::FlowSink LinkSink();
  // Runs the step at `flow->hop`: queues the flow on that hop's link, hands
  // it to the event or cross-partition message that resumes it, or delivers
  // it. `now` is the clock of the partition the step runs on.
  void Advance(std::unique_ptr<Flow> flow, SimTime now);
  // An event resuming `flow` at `flow->hop` on dst's partition, where every
  // scheduled or posted step of a flow lands.
  EventCallback Resume(std::unique_ptr<Flow> flow);
  // Reports the link at `flow.hop` as a span on that link's track.
  void EmitHopSpan(const Flow& flow, SimTime now);
  void Deliver(std::unique_ptr<Flow> flow, SimTime now);

  Simulator* sim_;                     // partition 0's simulator
  ParallelSimulation* psim_ = nullptr; // null in sequential mode
  FabricConfig config_;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Rack>> racks_;
  // Open (not yet full) rack per partition, -1 if none. Indexed lazily.
  std::vector<int> open_rack_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_NET_FABRIC_H_
