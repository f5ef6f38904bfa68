// net_egress_isolation: the network fabric and the §3.2 egress cap, end to end.
//
//   build/examples/net_egress_isolation [egress_cap_mbps]
//
// Builds a small TLA -> MLA -> leaf cluster whose RPCs travel the src/net/
// fabric, starts an HDFS-replication-style network bully on every index
// machine, and compares the TLA tail with and without PerfIso's static
// egress cap. The bully never hurts its own machine (primary traffic
// preempts it in the NIC priority TX queues) — it hurts its *victims'* RX
// links and the shared ToR uplinks, which only shaping at the source fixes.
#include <cstdio>
#include <cstdlib>

#include "src/cluster/cluster.h"
#include "src/workload/query_trace.h"

using namespace perfiso;

namespace {

double RunOnce(double egress_cap_bps, double* secondary_egress_bps) {
  Simulator sim;
  ClusterOptions options;
  options.topology = TopologySpec{6, 1, 2};
  Cluster cluster(&sim, options);

  for (int i = 0; i < cluster.NumIndexNodes(); ++i) {
    IndexNodeRig& node = cluster.index_node(i);
    NetworkBully::Options net;
    net.streams = 8;
    for (int p = 0; p < cluster.NumIndexNodes(); ++p) {
      if (p != i) {
        net.peers.push_back(cluster.index_endpoint(p));
      }
    }
    node.StartNetworkBully(&cluster.fabric(), cluster.index_endpoint(i), net);

    PerfIsoConfig config;  // blind isolation, 8 buffer cores
    config.egress_rate_cap_bps = egress_cap_bps;
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      std::fprintf(stderr, "PerfIso start failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  Rng trace_rng(5);
  auto trace = GenerateTrace(TraceSpec{}, 8000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*queries_per_sec=*/1500, Rng(6),
                        [&](const QueryWork& query, SimTime) { cluster.SubmitQuery(query); });
  client.Run(0, 3 * kSecond);
  sim.RunUntil(kSecond);
  cluster.ResetStats();
  sim.RunUntil(3 * kSecond);

  *secondary_egress_bps = static_cast<double>(cluster.SecondaryEgressBytes()) /
                          ToSeconds(2 * kSecond) / cluster.NumIndexNodes();
  return cluster.TlaLatency().P99();
}

}  // namespace

int main(int argc, char** argv) {
  const double cap_mbps = argc > 1 ? std::atof(argv[1]) : 50;

  double uncapped_egress = 0;
  const double uncapped_p99 = RunOnce(0, &uncapped_egress);
  double capped_egress = 0;
  const double capped_p99 = RunOnce(cap_mbps * 1e6, &capped_egress);

  std::printf("network bully on every index machine (8 x 1 MB streams each)\n\n");
  std::printf("%-24s %12s %22s\n", "scenario", "TLA p99(ms)", "egress/machine(MB/s)");
  std::printf("%-24s %12.2f %22.1f\n", "uncapped", uncapped_p99, uncapped_egress / 1e6);
  std::printf("%-24s %12.2f %22.1f\n", "egress cap", capped_p99, capped_egress / 1e6);
  std::printf("\nthe cap (%g MB/s) shapes the bully at the source; the cluster tail recovers "
              "%.1fx\n",
              cap_mbps, uncapped_p99 / capped_p99);
  return 0;
}
