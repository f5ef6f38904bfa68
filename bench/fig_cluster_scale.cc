// Cluster-scale parallel-simulation bench: the headline for the time-windowed
// PDES engine (src/sim/parallel.h, DESIGN.md §10).
//
// Scenario: a 1,000-leaf cluster (50 index rows x 20 columns, 31 TLA
// machines) serving one full — compressed — diurnal day of query load at
// 2,000 QPS peak, with the paper's colocated CPU bully and blind isolation
// (B=8) on every leaf. The cluster is sharded into 21 simulator partitions
// (TLAs + client on partition 0, rows round-robined over the other 20) run
// in conservative lockstep windows of width FabricConfig::base_latency.
//
// Rows: one sequential baseline (the pre-partitioning single-Simulator
// engine) and one partitioned run per worker thread count in {1, 2, 4, 8}.
// Reported per row: wall seconds, events/sec, speedup over sequential, the
// run's latency digests, and fell_back_sequential (1 when a partitioned
// request ran on the sequential engine instead). The determinism contract is
// asserted, not just reported: every partitioned run must produce
// bit-identical digests to the 1-thread run, or the bench aborts.
//
// The summary row `cluster_scale` anchors the CI regression guard:
// events_per_sec_best normalized by events_per_sec_t1 (the same binary's
// single-thread throughput) so the guard tracks scaling, not machine speed.
//
// Paper tie-in: §6.2 runs PerfIso on a 75-machine production slice because
// that is what fits an evaluation; this bench is the simulator making the
// 1,000-machine version of that experiment a single command.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/workload/scenario.h"

namespace {

using namespace perfiso;
using bench::ClusterRunResult;
using bench::RunClusterScenario;

constexpr int kPartitions = 21;  // TLA shard + 20 row shards

ScenarioSpec ClusterScaleScenario() {
  ScenarioSpec spec;
  spec.name = "cluster-scale-diurnal";
  // One full day per measurement window (ScaleScenarioForBench keeps that
  // ratio at any PERFISO_BENCH_SCALE).
  spec.load = DiurnalLoad(/*peak_qps=*/2000, /*period_sec=*/8, /*trough_fraction=*/0.25);
  spec.measure = 8 * kSecond;
  spec.warmup = kSecond / 2;
  spec.topology.columns = 20;
  spec.topology.rows = 50;  // 1,000 IndexServe machines
  spec.topology.tla_machines = 31;
  spec.tenants.cpu_bully_threads = 8;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  spec.perfiso = config;
  spec.trace_count = 20000;
  return spec;
}

struct TimedRun {
  ClusterRunResult result;
  double wall_s = 0;
};

TimedRun RunTimed(const ScenarioSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = RunClusterScenario(spec);
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

void RecordRun(const std::string& label, const TimedRun& run, double seq_wall_s) {
  const ClusterRunResult& r = run.result;
  const double events_per_sec =
      run.wall_s > 0 ? static_cast<double>(r.events_executed) / run.wall_s : 0;
  const double speedup = run.wall_s > 0 ? seq_wall_s / run.wall_s : 0;
  bench::ReportRow(label, {
                              {"wall_s", run.wall_s},
                              {"events_per_sec", events_per_sec},
                              {"speedup_vs_sequential", speedup},
                              {"partitions", static_cast<double>(r.partitions_used)},
                              {"threads", static_cast<double>(r.threads_used)},
                              {"completed", static_cast<double>(r.completed)},
                              {"tla_p99_ms", r.tla_p99_ms},
                              {"fell_back_sequential", r.fell_back_sequential ? 1.0 : 0.0},
                          });
  std::printf("%-14s %8.2fs wall  %10.0f events/s  %5.2fx vs sequential  "
              "p99 %.2f ms  %lld queries\n",
              label.c_str(), run.wall_s, events_per_sec, speedup, r.tla_p99_ms,
              static_cast<long long>(r.completed));
}

// The determinism contract is the bench's precondition: a speedup over runs
// that disagree on results would be measuring a bug.
void CheckDigestsMatch(const ClusterRunResult& a, const ClusterRunResult& b,
                       const std::string& what) {
  if (a.leaf_digest != b.leaf_digest || a.mla_digest != b.mla_digest ||
      a.tla_digest != b.tla_digest || a.flow_digest != b.flow_digest ||
      a.completed != b.completed || a.events_executed != b.events_executed) {
    std::fprintf(stderr,
                 "determinism violation (%s): digests differ across thread counts\n"
                 "  leaf %016llx vs %016llx  tla %016llx vs %016llx\n",
                 what.c_str(), static_cast<unsigned long long>(a.leaf_digest),
                 static_cast<unsigned long long>(b.leaf_digest),
                 static_cast<unsigned long long>(a.tla_digest),
                 static_cast<unsigned long long>(b.tla_digest));
    std::abort();
  }
}

}  // namespace

int main() {
  bench::StartReport("cluster_scale");
  bench::PrintHeader("Cluster-scale parallel simulation (1,000 leaves, diurnal day)",
                     "PDES scaling", "simulator headline; extends the fig09/fig10 setting");

  const ScenarioSpec spec = ClusterScaleScenario();

  // Sequential baseline: sim_partitions = 0 keeps the single-Simulator
  // engine (and its golden digests) untouched.
  ScenarioSpec sequential = spec;
  sequential.sim_partitions = 0;
  std::printf("sequential baseline...\n");
  const TimedRun seq = RunTimed(sequential);
  RecordRun("sequential", seq, seq.wall_s);

  ScenarioSpec partitioned = spec;
  partitioned.sim_partitions = kPartitions;

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<TimedRun> runs;
  for (int threads : thread_counts) {
    setenv("PERFISO_SIM_THREADS", std::to_string(threads).c_str(), 1);
    std::printf("partitioned, %d thread(s)...\n", threads);
    runs.push_back(RunTimed(partitioned));
    RecordRun("threads_" + std::to_string(threads), runs.back(), seq.wall_s);
    if (runs.size() > 1) {
      CheckDigestsMatch(runs.front().result, runs.back().result,
                        "threads=" + std::to_string(threads) + " vs 1");
    }
  }

  double best_wall = runs.front().wall_s;
  int best_threads = thread_counts.front();
  bool any_fell_back = runs.front().result.fell_back_sequential;
  for (size_t i = 1; i < runs.size(); ++i) {
    any_fell_back = any_fell_back || runs[i].result.fell_back_sequential;
    if (runs[i].wall_s < best_wall) {
      best_wall = runs[i].wall_s;
      best_threads = thread_counts[i];
    }
  }
  const double events = static_cast<double>(runs.front().result.events_executed);
  const double events_per_sec_t1 = events / runs.front().wall_s;
  const double events_per_sec_best = events / best_wall;
  bench::ReportRow("cluster_scale", {
                                        {"events_per_sec_t1", events_per_sec_t1},
                                        {"events_per_sec_best", events_per_sec_best},
                                        {"speedup_best", seq.wall_s / best_wall},
                                        {"threads_best", static_cast<double>(best_threads)},
                                        {"digests_equal", 1.0},
                                        {"fell_back_sequential", any_fell_back ? 1.0 : 0.0},
                                    });
  std::printf("best: %d thread(s), %.2fx over sequential; digests identical "
              "across all thread counts\n",
              best_threads, seq.wall_s / best_wall);
  std::printf("paper: n/a — simulator scaling headline (the paper's cluster tops "
              "out at 75 machines)\n");
  return 0;
}
