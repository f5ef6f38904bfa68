// Figure 9: the 75-machine production cluster experiment (§5.3, §6.2).
//
// Topology: 22 index columns x 2 rows (44 IndexServe machines) + 31 TLA
// machines. A client submits queries at 8,000 QPS total; TLAs round-robin
// across rows, so each IndexServe machine sees ~4,000 QPS (peak load).
// Three scenarios:
//   9a standalone        — IndexServe + HDFS client only (the baseline also
//                          carries HDFS, which uses up to 5% CPU, §6.2);
//   9b CPU-bound bully   — 48-thread CPU bully per machine, PerfIso blind
//                          isolation (B=8);
//   9c disk-bound bully  — DiskSPD-like bully on the HDD stripe, PerfIso
//                          disk throttles (100 MB/s + 20 IOPS for the bully;
//                          HDFS 60 MB/s, replication 20 MB/s).
// Reported: AVG/P95/P99 latency at each layer (leaf IndexServe, MLA, TLA).
//
// Paper shape: colocation under PerfIso stays within ~1.2 ms of the
// standalone P99 at every layer.
//
// The paper replays 200k queries (25 s at 8,000 QPS) 8 times; the default
// scale here runs a 4 s measurement once — set PERFISO_BENCH_SCALE=6 (or
// more) to approach the full run.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/obs/obs.h"

namespace {

using namespace perfiso;

enum class Secondary { kNone, kCpu, kDisk };

struct LayerRow {
  double avg = 0;
  double p95 = 0;
  double p99 = 0;
};

struct ClusterResult {
  LayerRow leaf;
  LayerRow mla;
  LayerRow tla;
  double mean_busy = 0;
  int64_t completed = 0;
  int64_t drops = 0;
};

LayerRow Summarize(const LatencyRecorder& rec) {
  return LayerRow{rec.Mean(), rec.P95(), rec.P99()};
}

// When `obs` is non-null the run carries a full observability context —
// cluster-wide tracing (TLA fan-out, fabric hops, every leaf's stages and
// I/O) plus cluster-level metric probes — and exports the artifacts into it.
// The tracer is passive, so observed and unobserved runs report identical
// latencies.
ClusterResult RunCluster(Secondary secondary, bench::ObsArtifacts* obs = nullptr) {
  Simulator sim;
  ClusterOptions options;
  options.topology = TopologySpec{22, 2, 31};
  Cluster cluster(&sim, options);

  cluster.ForEachIndexNode([&](IndexNodeRig& node) {
    // Every IndexServe machine runs an HDFS client (§5.3).
    node.StartHdfsClient(HdfsClient::Options{});

    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    config.blind.buffer_cores = 8;
    // Static disk limits from §5.3: HDFS 60 MB/s, replication 20 MB/s; the
    // disk bully gets the cluster experiment's 100 MB/s + 20 IOPS throttle.
    config.io_limits.push_back(
        IoOwnerLimit{kIoOwnerHdfsClient, 60e6, 0, /*priority=*/1, 1.0, 0});
    config.io_limits.push_back(
        IoOwnerLimit{kIoOwnerHdfsReplication, 20e6, 0, /*priority=*/1, 1.0, 0});
    if (secondary == Secondary::kCpu) {
      node.StartCpuBully(48);
    } else if (secondary == Secondary::kDisk) {
      DiskBully::Options bully;
      bully.owner = kIoOwnerDiskBully;
      node.StartDiskBully(bully);
      config.io_limits.push_back(
          IoOwnerLimit{kIoOwnerDiskBully, 100e6, 20, /*priority=*/2, 1.0, 0});
    }
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      std::fprintf(stderr, "PerfIso start failed: %s\n", status.ToString().c_str());
      std::abort();
    }
  });

  std::unique_ptr<ObsContext> obs_ctx;
  if (obs != nullptr) {
    ObsSpec spec;
    spec.enabled = true;
    spec.sampling = TraceSampling::kSlowestK;
    // A cluster trace fans out across every leaf of a row, so one retained
    // query is ~1k span records; 32 keeps the artifact in the single-digit
    // megabytes while still covering the whole P99 cohort of a smoke run.
    spec.slowest_k = 32;
    obs_ctx = std::make_unique<ObsContext>(spec);
    cluster.EnableTracing(&obs_ctx->tracer);
    obs_ctx->registry.AddProbe("cluster.completed", [&cluster] {
      return static_cast<double>(cluster.queries_completed());
    });
    obs_ctx->registry.AddProbe("cluster.leaf_drops", [&cluster] {
      return static_cast<double>(cluster.leaf_drops());
    });
    obs_ctx->registry.AddProbe("cluster.tla_p99_ms",
                               [&cluster] { return cluster.TlaLatency().P99(); });
  }

  Rng trace_rng(4242);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/8000, Rng(9),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });

  const SimDuration warmup = kSecond / 2;
  const auto measure = static_cast<SimDuration>(4 * kSecond * bench::BenchScale());
  if (obs_ctx != nullptr) {
    const int client_pid = obs_ctx->tracer.RegisterProcess("client");
    client.SetTracer(&obs_ctx->tracer, obs_ctx->tracer.RegisterTrack(client_pid, "arrivals"));
    obs_ctx->StartSampling(&sim, warmup);
  }
  client.Run(0, warmup + measure);
  sim.RunUntil(warmup);
  cluster.ResetStats();
  const auto snaps = cluster.SnapshotAll();
  sim.RunUntil(warmup + measure);

  ClusterResult result;
  result.leaf = Summarize(cluster.MergedLeafLatency());
  result.mla = Summarize(cluster.MlaLatency());
  result.tla = Summarize(cluster.TlaLatency());
  result.mean_busy = cluster.MeanBusyFractionSince(snaps);
  result.completed = cluster.queries_completed();
  result.drops = cluster.leaf_drops();

  if (obs_ctx != nullptr) {
    bench::ExportObsArtifacts(*obs_ctx, sim.Now(), obs);
  }
  return result;
}

void RecordCluster(const char* label, const ClusterResult& r) {
  bench::ReportRow(label, {
                              {"leaf_avg_ms", r.leaf.avg},
                              {"leaf_p95_ms", r.leaf.p95},
                              {"leaf_p99_ms", r.leaf.p99},
                              {"mla_avg_ms", r.mla.avg},
                              {"mla_p95_ms", r.mla.p95},
                              {"mla_p99_ms", r.mla.p99},
                              {"tla_avg_ms", r.tla.avg},
                              {"tla_p95_ms", r.tla.p95},
                              {"tla_p99_ms", r.tla.p99},
                              {"mean_busy", r.mean_busy},
                              {"completed", static_cast<double>(r.completed)},
                              {"drops", static_cast<double>(r.drops)},
                          });
}

void PrintCluster(const char* label, const ClusterResult& r) {
  RecordCluster(label, r);
  std::printf("%-28s | leaf avg/p95/p99: %6.2f %6.2f %6.2f | MLA: %6.2f %6.2f %6.2f | "
              "TLA: %6.2f %6.2f %6.2f | busy %4.1f%% | done %lld drops %lld\n",
              label, r.leaf.avg, r.leaf.p95, r.leaf.p99, r.mla.avg, r.mla.p95, r.mla.p99,
              r.tla.avg, r.tla.p95, r.tla.p99, r.mean_busy * 100,
              static_cast<long long>(r.completed), static_cast<long long>(r.drops));
}

}  // namespace

int main() {
  using namespace perfiso::bench;
  StartReport("fig09_cluster");
  PrintHeader("75-machine cluster, per-layer latency", "Fig. 9a/9b/9c",
              "P99 increase vs standalone at most: CPU-bound 0.8/0.4/1.1 ms and disk-bound "
              "0.8/1.2/1.1 ms at IndexServe/MLA/TLA");

  // The three cluster scenarios are independent simulations; run them across
  // hardware threads and print in input order. The CPU-bound run (9b) carries
  // the observability context and exports the trace/metrics artifacts.
  ObsArtifacts obs;
  const std::vector<ClusterResult> results = RunParallel<ClusterResult>({
      [] { return RunCluster(Secondary::kNone); },
      [&obs] { return RunCluster(Secondary::kCpu, &obs); },
      [] { return RunCluster(Secondary::kDisk); },
  });
  const ClusterResult& standalone = results[0];
  const ClusterResult& cpu = results[1];
  const ClusterResult& disk = results[2];
  PrintCluster("9a standalone (+HDFS)", standalone);
  PrintCluster("9b CPU-bound + PerfIso", cpu);
  PrintCluster("9c disk-bound + PerfIso", disk);

  std::printf("\nP99 deltas vs standalone (ms):\n");
  std::printf("  CPU-bound : leaf %+0.2f  MLA %+0.2f  TLA %+0.2f   (paper: +0.8 +0.4 +1.1)\n",
              cpu.leaf.p99 - standalone.leaf.p99, cpu.mla.p99 - standalone.mla.p99,
              cpu.tla.p99 - standalone.tla.p99);
  std::printf("  disk-bound: leaf %+0.2f  MLA %+0.2f  TLA %+0.2f   (paper: +0.8 +1.2 +1.1)\n",
              disk.leaf.p99 - standalone.leaf.p99, disk.mla.p99 - standalone.mla.p99,
              disk.tla.p99 - standalone.tla.p99);
  std::printf("\n");
  WriteObsArtifacts("fig09_cluster", obs);
  return 0;
}
