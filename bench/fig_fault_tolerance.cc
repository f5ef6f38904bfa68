// Fault tolerance: graceful degradation under injected faults (DESIGN.md §8).
//
// Not a paper figure — the paper's cluster (§5.3) assumes healthy machines —
// but the serving stack it models (TLA/MLA fan-out where "the slowest leaf
// dictates the response time") only stays usable in production because a
// crashed leaf costs *coverage*, not latency: the aggregator answers from the
// leaves that did respond instead of waiting on the dead one.
//
// Two experiments:
//   A. Cluster, one crashed leaf — a 6x2 cluster under the Fig. 9b colocation
//      (48-thread CPU bully + blind isolation) with one index node crashed
//      for the middle half of the measurement window. Expectation: queries
//      routed to the crashed node's row complete degraded (5/6 leaf
//      coverage), mean coverage drops, and the P99 of *surviving* queries
//      stays within tolerance of the healthy run.
//   B. Single box, degraded disk — the registry's fault-disk-degrade-blind
//      spec (40x SSD/HDD latency for a two-second window) run three ways:
//      fault disabled, fault with no resilience (slow chunks ride to the
//      client timeout), and fault with the robustness stack on — per-chunk
//      retry with capped exponential backoff plus the k-of-n degrade
//      deadline. The resilient run trades full coverage for a bounded tail.
//
// Every run finishes with an InvariantChecker pass (conservation, no
// completions while crashed, budget caps, coverage bounds); a violation
// aborts the bench, so any printed row is a checked row.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault_injector.h"
#include "src/fault/invariant_checker.h"
#include "src/obs/obs.h"

namespace {

using namespace perfiso;

struct ClusterRow {
  double tla_p99_ms = 0;
  double tla_p95_ms = 0;
  double coverage_mean = 1.0;
  int64_t completed = 0;
  int64_t degraded = 0;
  int64_t failed = 0;
  int64_t faults_injected = 0;
};

// Runs the Fig. 9b-style colocated cluster with `plan` armed; when `obs` is
// non-null the run carries tracing (fault instants land on the "faults"
// track) and exports the artifacts.
ClusterRow RunClusterWithFaults(const FaultPlan& plan, bench::ObsArtifacts* obs = nullptr) {
  Simulator sim;
  ClusterOptions options;
  options.topology = TopologySpec{6, 2, 2};
  Cluster cluster(&sim, options);

  cluster.ForEachIndexNode([](IndexNodeRig& node) {
    node.StartCpuBully(48);
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    config.blind.buffer_cores = 8;
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
    spec.slowest_k = 32;
    obs_ctx = std::make_unique<ObsContext>(spec);
    cluster.EnableTracing(&obs_ctx->tracer);
    obs_ctx->registry.AddProbe("cluster.completed", [&cluster] {
      return static_cast<double>(cluster.queries_completed());
    });
    obs_ctx->registry.AddProbe("cluster.failed", [&cluster] {
      return static_cast<double>(cluster.queries_failed());
    });
    obs_ctx->registry.AddProbe("cluster.degraded", [&cluster] {
      return static_cast<double>(cluster.queries_degraded());
    });
  }

  FaultInjector injector(&sim, plan, &cluster);
  if (obs_ctx != nullptr) {
    injector.EnableTracing(&obs_ctx->tracer);
  }
  injector.Arm();

  Rng trace_rng(4242);
  auto trace = GenerateTrace(TraceSpec{}, 20000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/4000, Rng(9),
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
  sim.RunUntil(warmup + measure);

  InvariantReport report;
  InvariantChecker::CheckCluster(cluster, /*expect_drained=*/false, &report);
  if (!report.ok()) {
    std::fprintf(stderr, "cluster invariant violations:\n%s", report.ToString().c_str());
    std::abort();
  }

  ClusterRow row;
  row.tla_p99_ms = cluster.TlaLatency().P99();
  row.tla_p95_ms = cluster.TlaLatency().P95();
  row.coverage_mean =
      cluster.LeafCoverage().Count() > 0 ? cluster.LeafCoverage().Mean() : 1.0;
  row.completed = cluster.queries_completed();
  row.degraded = cluster.queries_degraded();
  row.failed = cluster.queries_failed();
  row.faults_injected = injector.stats().injected;

  if (obs_ctx != nullptr) {
    bench::ExportObsArtifacts(*obs_ctx, sim.Now(), obs);
  }
  return row;
}

void PrintClusterRow(const char* label, const ClusterRow& r) {
  bench::ReportRow(label, {
                              {"tla_p95_ms", r.tla_p95_ms},
                              {"tla_p99_ms", r.tla_p99_ms},
                              {"coverage_mean", r.coverage_mean},
                              {"completed", static_cast<double>(r.completed)},
                              {"degraded", static_cast<double>(r.degraded)},
                              {"failed", static_cast<double>(r.failed)},
                              {"faults_injected", static_cast<double>(r.faults_injected)},
                          });
  std::printf("%-26s | TLA p95/p99: %6.2f %6.2f ms | coverage %5.3f | "
              "done %6lld deg %5lld fail %4lld | faults %lld\n",
              label, r.tla_p95_ms, r.tla_p99_ms, r.coverage_mean,
              static_cast<long long>(r.completed), static_cast<long long>(r.degraded),
              static_cast<long long>(r.failed), static_cast<long long>(r.faults_injected));
}

// The robustness stack experiment B turns on: chunk retries with capped
// exponential backoff, plus the k-of-n degrade deadline.
IndexNodeOptions ResilientNodeOptions() {
  IndexNodeOptions node;
  node.indexserve.chunk_retry.enabled = true;
  node.indexserve.chunk_retry.max_attempts = 3;
  node.indexserve.chunk_retry.timeout = FromMillis(10);
  node.indexserve.chunk_retry.backoff_base = FromMillis(2);
  node.indexserve.chunk_retry.backoff_cap = FromMillis(20);
  node.indexserve.degrade_deadline = FromMillis(30);
  node.indexserve.min_chunk_coverage = 0.5;
  return node;
}

void PrintSingleBoxRow(const char* label, const bench::SingleBoxResult& r) {
  bench::RecordRow(label, r);
  std::printf("%-26s | p95/p99: %6.2f %6.2f ms | drop %5.1f%% | coverage %5.3f | "
              "deg %5lld retry %5lld crash-drop %lld\n",
              label, r.p95_ms, r.p99_ms, r.drop_fraction * 100, r.coverage_mean,
              static_cast<long long>(r.degraded), static_cast<long long>(r.retries),
              static_cast<long long>(r.dropped_crash));
}

}  // namespace

int main() {
  using namespace perfiso::bench;
  StartReport("fig_fault_tolerance");
  PrintHeader("Fault tolerance: crash = lost coverage, not lost tail", "robustness",
              "not a paper figure; asserts the aggregation property Fig. 3's fan-out relies on");

  // --- A: cluster with one crashed leaf --------------------------------------
  const double warmup_sec = 0.5;
  const double measure_sec = 4.0 * BenchScale();

  FaultPlan one_crash;
  one_crash.enabled = true;
  one_crash.events.push_back(FaultEvent{FaultKind::kNodeCrash, /*node=*/0,
                                        /*at_sec=*/warmup_sec + 0.25 * measure_sec,
                                        /*duration_sec=*/0.5 * measure_sec,
                                        /*severity=*/1.0});

  ObsArtifacts obs;
  const std::vector<ClusterRow> cluster_rows = RunParallel<ClusterRow>({
      [] { return RunClusterWithFaults(FaultPlan{}); },
      [&obs, &one_crash] { return RunClusterWithFaults(one_crash, &obs); },
  });
  std::printf("A. 6x2 cluster, CPU bully + blind isolation, 4000 QPS:\n");
  PrintClusterRow("A1 healthy", cluster_rows[0]);
  PrintClusterRow("A2 one leaf crashed", cluster_rows[1]);
  std::printf("   surviving-query TLA P99 delta: %+0.2f ms; mean coverage %5.3f -> %5.3f\n\n",
              cluster_rows[1].tla_p99_ms - cluster_rows[0].tla_p99_ms,
              cluster_rows[0].coverage_mean, cluster_rows[1].coverage_mean);

  // --- B: single box, degraded disk, with and without the robustness stack ---
  ScenarioSpec degraded = MustFindScenario("fault-disk-degrade-blind");
  ScenarioSpec baseline = degraded;
  baseline.fault.enabled = false;
  baseline.fault.events.clear();

  const SingleBoxResult b1 = RunSingleBox(baseline);
  const SingleBoxResult b2 = RunSingleBox(degraded);
  const SingleBoxResult b3 = RunSingleBox(degraded, ResilientNodeOptions());
  std::printf("B. single box, 40x disk-latency window under blind isolation:\n");
  PrintSingleBoxRow("B1 no fault", b1);
  PrintSingleBoxRow("B2 fault, no resilience", b2);
  PrintSingleBoxRow("B3 fault + retry/degrade", b3);
  std::printf("   resilience: p99 %0.2f -> %0.2f ms, coverage %5.3f (floor 0.5), "
              "invariants held on every run\n\n",
              b2.p99_ms, b3.p99_ms, b3.coverage_mean);

  WriteObsArtifacts("fig_fault_tolerance", obs);
  return 0;
}
