// Network egress isolation: the network analogue of Fig. 5.
//
// Every index machine runs an HDFS-replication-style network bully
// (src/workload/ NetworkBully) that streams bulk blocks to random peers.
// Uncapped, the bully's traffic floods the victims' NIC RX links and the
// oversubscribed ToR uplinks — MLA fan-in incast lands behind megabytes of
// batch blocks and the TLA tail collapses, even though the bully's *own*
// machine keeps its primary egress safe in the NIC priority queues. The
// static egress cap of §3.2 (PerfIso's `net.egress_rate_cap_bps`) shapes the
// bully at every source, which restores the cluster tail end to end while
// the bully keeps exactly its allotted bandwidth.
//
// Reported per scenario: per-layer latency (leaf/MLA/TLA), secondary egress
// throughput per machine, and bully goodput. Expectation: TLA P99 degrades
// >= 2x uncapped and returns to within 10% of the bully-free baseline under
// the cap, with secondary egress held at the cap.
#include <cstdio>

#include "bench/harness.h"
#include "src/cluster/cluster.h"

namespace {

using namespace perfiso;

constexpr double kEgressCapBps = 50e6;  // 50 MB/s of a 1.25 GB/s NIC

struct NetResult {
  double leaf_p99 = 0;
  double mla_p99 = 0;
  double tla_avg = 0;
  double tla_p95 = 0;
  double tla_p99 = 0;
  double secondary_egress_bps_per_machine = 0;  // serialized on NIC TX
  double bully_goodput_bps_per_machine = 0;     // delivered end to end
  int64_t completed = 0;
};

NetResult RunScenario(bool bully, double egress_cap_bps) {
  Simulator sim;
  ClusterOptions options;
  options.topology = TopologySpec{8, 2, 8};

  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  config.egress_rate_cap_bps = egress_cap_bps;

  Cluster cluster(&sim, options);
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    IndexNodeRig& node = cluster.index_node(i);
    node.StartHdfsClient(HdfsClient::Options{});
    if (bully) {
      NetworkBully::Options net;
      // HDFS replication streams its 64-128 MB blocks as ~1 MB pipeline
      // sub-blocks; with store-and-forward hops the sub-block size is also
      // the burst a victim's RX link absorbs per transfer.
      net.block_bytes = 1024 * 1024;
      net.streams = 8;
      for (int p = 0; p < cluster.NumIndexNodes(); ++p) {
        if (p != i) {
          net.peers.push_back(cluster.index_endpoint(p));
        }
      }
      node.StartNetworkBully(&cluster.fabric(), cluster.index_endpoint(i), net);
    }
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      std::fprintf(stderr, "PerfIso start failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  }

  Rng trace_rng(1717);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/3000, Rng(18),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });

  const SimDuration warmup = kSecond / 2;
  const auto measure = static_cast<SimDuration>(4 * kSecond * bench::BenchScale());
  client.Run(0, warmup + measure);
  sim.RunUntil(warmup);
  cluster.ResetStats();
  int64_t bully_bytes_then = 0;
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    if (NetworkBully* b = cluster.index_node(i).network_bully()) {
      bully_bytes_then += b->bytes_delivered();
    }
  }
  sim.RunUntil(warmup + measure);

  NetResult result;
  result.leaf_p99 = cluster.MergedLeafLatency().P99();
  result.mla_p99 = cluster.MlaLatency().P99();
  result.tla_avg = cluster.TlaLatency().Mean();
  result.tla_p95 = cluster.TlaLatency().P95();
  result.tla_p99 = cluster.TlaLatency().P99();
  result.completed = cluster.queries_completed();
  const double window_sec = ToSeconds(measure);
  const double machines = cluster.NumIndexNodes();
  result.secondary_egress_bps_per_machine =
      static_cast<double>(cluster.SecondaryEgressBytes()) / window_sec / machines;
  int64_t bully_bytes = 0;
  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    if (NetworkBully* b = cluster.index_node(i).network_bully()) {
      bully_bytes += b->bytes_delivered();
    }
  }
  result.bully_goodput_bps_per_machine =
      static_cast<double>(bully_bytes - bully_bytes_then) / window_sec / machines;
  return result;
}

void PrintNet(const char* label, const NetResult& r) {
  bench::ReportRow(label, {
                              {"leaf_p99_ms", r.leaf_p99},
                              {"mla_p99_ms", r.mla_p99},
                              {"tla_avg_ms", r.tla_avg},
                              {"tla_p95_ms", r.tla_p95},
                              {"tla_p99_ms", r.tla_p99},
                              {"secondary_egress_mbps", r.secondary_egress_bps_per_machine / 1e6},
                              {"bully_goodput_mbps", r.bully_goodput_bps_per_machine / 1e6},
                              {"completed", static_cast<double>(r.completed)},
                          });
  std::printf("%-26s | leaf/MLA/TLA p99: %7.2f %7.2f %7.2f | TLA avg %6.2f | "
              "egress %6.1f MB/s/machine | done %lld\n",
              label, r.leaf_p99, r.mla_p99, r.tla_p99, r.tla_avg,
              r.secondary_egress_bps_per_machine / 1e6, static_cast<long long>(r.completed));
}

}  // namespace

int main() {
  using namespace perfiso::bench;
  StartReport("fig_net_egress");
  PrintHeader("network bully vs the static egress cap", "net analogue of Fig. 5",
              "uncapped network bully >= 2x TLA P99; egress cap restores the tail to within "
              "10% of baseline while the bully holds the cap");

  // Independent cluster simulations; run across hardware threads, print in
  // input order.
  const std::vector<NetResult> results = RunParallel<NetResult>({
      [] { return RunScenario(/*bully=*/false, /*egress_cap_bps=*/0); },
      [] { return RunScenario(/*bully=*/true, /*egress_cap_bps=*/0); },
      [] { return RunScenario(/*bully=*/true, kEgressCapBps); },
  });
  const NetResult& baseline = results[0];
  const NetResult& uncapped = results[1];
  const NetResult& capped = results[2];
  PrintNet("baseline (no net bully)", baseline);
  PrintNet("net bully, uncapped", uncapped);
  PrintNet("net bully + egress cap", capped);

  std::printf("\nTLA P99: baseline %.2f ms -> uncapped %.2f ms (%.1fx) -> capped %.2f ms "
              "(%+.1f%% vs baseline)\n",
              baseline.tla_p99, uncapped.tla_p99, uncapped.tla_p99 / baseline.tla_p99,
              capped.tla_p99, (capped.tla_p99 / baseline.tla_p99 - 1) * 100);
  std::printf("secondary egress under cap: %.1f MB/s/machine (cap %.1f MB/s)\n",
              capped.secondary_egress_bps_per_machine / 1e6, kEgressCapBps / 1e6);
  return 0;
}
