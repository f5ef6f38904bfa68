// The multi-machine IndexServe cluster of §5.3 / Fig. 3.
//
// Topology: the index is split into `columns` partitions, replicated across
// `rows` rows; every IndexServe machine holds one (row, column) slice.
// Top-level aggregators (TLAs) run on separate machines; they round-robin
// incoming queries across rows and pick a mid-level aggregator (MLA) from the
// chosen row. The MLA fans the query out to every column of its row
// (including itself), aggregates the responses — the slowest leaf dictates
// the response time [15] — and replies to the TLA.
//
// All inter-machine RPCs travel through a Fabric (src/net/): every machine
// attaches with a priority NIC, racks share oversubscribed ToR uplinks, and
// MLA fan-in serializes at the aggregator's RX link (genuine incast rather
// than a closed-form constant). Secondary-class flows drain the per-machine
// egress bucket, so PerfIso's egress cap has an end-to-end effect.
//
// Latency is measured at each layer as in Fig. 9: per-leaf (IndexServer
// internal), per-MLA (arrival at MLA to reply), and per-TLA (end to end).
#ifndef PERFISO_SRC_CLUSTER_CLUSTER_H_
#define PERFISO_SRC_CLUSTER_CLUSTER_H_

#include <memory>
#include <vector>

#include "src/cluster/index_node.h"
#include "src/cluster/topology.h"
#include "src/net/fabric.h"
#include "src/util/stats.h"
#include "src/workload/query_trace.h"

namespace perfiso {

struct ClusterOptions {
  // 31 TLA machines, separate from the 44 index machines (75 total).
  TopologySpec topology{/*columns=*/22, /*rows=*/2, /*tla_machines=*/31};
  FabricConfig fabric;  // absorbs the old NetworkSpec (rates + RPC sizes)
  IndexNodeOptions node;
  // Aggregation CPU costs on MLA/TLA machines.
  double mla_merge_cpu_us = 40;    // per leaf response
  double mla_finalize_cpu_us = 250;
  double tla_cpu_us = 150;
  // Graceful degradation: a query whose answered-leaf fraction is at least
  // this completes (degraded when below 1.0); below it, or with no leaf
  // answering at all, the TLA fails the query. Failed-coverage leaves are
  // crashed leaves plus per-leaf drops.
  double min_leaf_coverage = 0.5;
  uint64_t seed = 42;
};

class Cluster {
 public:
  Cluster(Simulator* sim, const ClusterOptions& options);
  // Partitioned cluster: partition 0 hosts the TLAs (and the submitting
  // client); row r's machines live on partition 1 + (r % (K-1)) of `psim`'s
  // K partitions. Row-granular sharding keeps the leaf fan-out/fan-in — the
  // overwhelming majority of cluster traffic — partition-local; only the
  // TLA<->MLA request/response pairs cross partitions, and those pay the
  // fabric propagation delay, which is exactly the PDES lookahead
  // (DESIGN.md §10). Unsupported in this mode: tracing and fault injection
  // (callers fall back to a sequential run for those).
  Cluster(ParallelSimulation* psim, const ClusterOptions& options);

  // Submits a query to a TLA (round-robin); `done` fires with the end-to-end
  // result at the TLA.
  void SubmitQuery(const QueryWork& work, IndexServer::QueryDoneFn done = nullptr);

  // Runs `fn` on every index node (e.g. to start bullies or PerfIso).
  template <typename Fn>
  void ForEachIndexNode(Fn&& fn) {
    for (auto& node : index_nodes_) {
      fn(*node);
    }
  }

  // Enables tracing everywhere: fabric tracks, every index node (machine,
  // server, volumes, schedulers), every TLA machine. Queries submitted
  // afterwards carry one "tla" trace context end to end — TLA forward, fabric
  // hops, every leaf's stages and I/O, MLA merge, and the final reply.
  void EnableTracing(Tracer* tracer);

  int NumIndexNodes() const { return static_cast<int>(index_nodes_.size()); }
  IndexNodeRig& index_node(int i) { return *index_nodes_[static_cast<size_t>(i)]; }

  // --- Fault injection --------------------------------------------------------
  // Marks a node dead/alive for routing (the health-check view): TLAs skip
  // crashed MLAs, and MLAs do not fan out to crashed leaves (the leaf counts
  // as failed coverage immediately). The FaultInjector keeps this in sync
  // with IndexNodeRig::Crash()/Restart(); the InvariantChecker asserts the
  // two views agree.
  void SetNodeCrashed(int node, bool crashed) {
    crashed_[static_cast<size_t>(node)] = crashed;
  }
  bool NodeCrashed(int node) const { return crashed_[static_cast<size_t>(node)]; }

  // The network: index nodes attach first (endpoint i == index node i), TLA
  // machines after.
  Fabric& fabric() { return *fabric_; }
  int index_endpoint(int i) const { return i; }
  int tla_endpoint(int i) const { return NumIndexNodes() + i; }

  // Secondary-class bytes serialized by index-machine NIC TX queues since the
  // given fabric stats reset, summed — the cluster's secondary egress volume.
  int64_t SecondaryEgressBytes() const;

  // --- Per-layer latency distributions (ms), as reported in Fig. 9 ----------
  // Merged across all leaves / MLAs / TLAs. MLA samples are recorded per row
  // (rows on different partitions never share a recorder) and merged in row
  // order here; call only while the simulation is quiescent.
  LatencyRecorder MergedLeafLatency() const;
  LatencyRecorder MlaLatency() const;
  const LatencyRecorder& TlaLatency() const { return tla_latency_ms_; }
  int64_t queries_submitted() const { return queries_submitted_; }
  int64_t queries_completed() const { return queries_completed_; }
  // Queries the TLA failed: leaf coverage below min_leaf_coverage, or the
  // whole row crashed. Disjoint from queries_completed.
  int64_t queries_failed() const { return queries_failed_; }
  // Subset of completed: answered with partial leaf coverage.
  int64_t queries_degraded() const { return queries_degraded_; }
  // Conservation residue (InvariantChecker: >= 0 always, == 0 when drained).
  // Queries in flight at the last ResetStats finish without a matching
  // `submitted` tick, hence the carry term.
  int64_t queries_inflight() const {
    return queries_submitted_ + inflight_at_reset_ - queries_completed_ - queries_failed_;
  }
  // Per completed query: fraction of the row's leaves that answered.
  const LatencyRecorder& LeafCoverage() const { return coverage_fraction_; }
  int64_t leaf_drops() const;

  void ResetStats();

  // Mean utilization fraction across index machines for a tenant since the
  // snapshots were taken with SnapshotAll().
  std::vector<IndexNodeRig::UtilizationSnapshot> SnapshotAll() const;
  double MeanUtilizationSince(const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps,
                              TenantClass tenant) const;
  double MeanBusyFractionSince(
      const std::vector<IndexNodeRig::UtilizationSnapshot>& snaps) const;

 private:
  struct PendingQuery;

  Cluster(Simulator* sim, ParallelSimulation* psim, const ClusterOptions& options);

  // Partition hosting row `row`'s machines (0 when not partitioned).
  int PartitionForRow(int row) const;

  // `now` is the MLA-side arrival time from the fabric delivery callback
  // (sim_->Now() would read the wrong partition's clock here).
  void RunMla(const std::shared_ptr<PendingQuery>& pending, SimTime now);
  // Serves the request at the leaf and returns the response to the MLA.
  void RunLeaf(const std::shared_ptr<PendingQuery>& pending, int leaf_index);
  // Merges one leaf response on the MLA machine.
  void MergeAtMla(const std::shared_ptr<PendingQuery>& pending);
  // All leaf slots accounted for: finalize on the MLA and reply to the TLA,
  // completing (possibly degraded) or failing on leaf coverage.
  void FinalizeMla(const std::shared_ptr<PendingQuery>& pending);
  // The TLA's reply, shared by every query: completes it (degraded when some
  // leaves failed) or fails it on leaf coverage, ends its trace and calls
  // `done`. A query that reached no MLA arrives with every leaf failed.
  void ReplyAtTla(const std::shared_ptr<PendingQuery>& pending, SimTime now);

  Simulator* sim_;                      // partition 0's simulator
  ParallelSimulation* psim_ = nullptr;  // null in sequential mode
  ClusterOptions options_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<IndexNodeRig>> index_nodes_;  // row-major [row][col]
  std::vector<std::unique_ptr<SimMachine>> tla_machines_;
  size_t next_tla_ = 0;
  int next_row_ = 0;
  std::vector<size_t> next_mla_in_row_;
  std::vector<LatencyRecorder> mla_latency_rows_;  // one per row (per partition)
  LatencyRecorder tla_latency_ms_;
  LatencyRecorder coverage_fraction_;
  int64_t queries_submitted_ = 0;
  int64_t queries_completed_ = 0;
  int64_t queries_failed_ = 0;
  int64_t queries_degraded_ = 0;
  int64_t inflight_at_reset_ = 0;
  std::vector<bool> crashed_;  // routing view, one flag per index node
};

}  // namespace perfiso

#endif  // PERFISO_SRC_CLUSTER_CLUSTER_H_
