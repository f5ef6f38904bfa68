// Shared harness for the paper-reproduction benches.
//
// Each bench binary reproduces one figure of the paper's evaluation (§6) by
// running single-box or cluster scenarios and printing the same rows the
// figure reports, alongside the paper's reference values. Durations scale
// with the PERFISO_BENCH_SCALE environment variable (default 1.0).
//
// Scenarios are declarative ScenarioSpec values (src/workload/scenario.h): a
// load shape, a replay client, a tenant mix, and an optional PerfIso config.
// The registry below names the canonical ones so benches and tests enumerate
// them by name instead of hand-rolling structs.
#ifndef PERFISO_BENCH_HARNESS_H_
#define PERFISO_BENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/index_node.h"
#include "src/perfiso/perfiso_config.h"
#include "src/workload/query_trace.h"
#include "src/workload/scenario.h"

namespace perfiso {
namespace bench {

// Scale factor from PERFISO_BENCH_SCALE (clamped to [0.05, 100]).
double BenchScale();

// The measurement window RunSingleBox actually uses: the spec's `measure`
// scaled by BenchScale(), floored at one second.
SimDuration ScaledMeasure(const ScenarioSpec& scenario);

// Compresses the spec's timeline to the scaled window: `measure` becomes
// ScaledMeasure() and every one-shot shape feature (flash window, piecewise
// steps, the ramp's end) keeps its position *relative to the measurement
// window*, while the periods of repeating shapes (diurnal, square wave)
// shrink by the same factor. Identity at scale 1. RunSingleBox applies this
// itself, so a registry scenario measures its whole shape — spike, bursts,
// full diurnal period — at any PERFISO_BENCH_SCALE. Fault-plan events remap
// the same way: inject times like flash windows, durations by the factor, so
// a scaled run still sees its crash/degradation windows inside the window.
ScenarioSpec ScaleScenarioForBench(const ScenarioSpec& scenario);

// Builds the rig a single-box spec describes — node seeded from the spec,
// tenants started, PerfIso attached (abort on failure). Shared by
// RunSingleBox and continuous-run benches like fig02.
std::unique_ptr<IndexNodeRig> MakeSingleBoxRig(Simulator* sim, const ScenarioSpec& scenario,
                                               const IndexNodeOptions& node = IndexNodeOptions{});

// One single-machine colocation scenario (the setting of Figs. 4-8) — now the
// declarative spec itself; benches fill in the load shape and tenant mix.
using SingleBoxScenario = ScenarioSpec;

struct SingleBoxResult {
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double drop_fraction = 0;
  double primary_util = 0;
  double secondary_util = 0;
  double os_util = 0;
  double idle_fraction = 0;
  // Secondary work completed during the measurement window, in core-seconds.
  double secondary_progress = 0;
  int64_t hedges = 0;
  int64_t queries = 0;
  // Robustness metrics (src/fault): mean per-query chunk coverage over
  // completed queries (1.0 when nothing degraded, 0 when nothing completed),
  // degraded completions, chunk retries issued, and crash drops. All zero /
  // 1.0 in a healthy run; the invariant checker (run after every measurement
  // window) aborts the bench on any violation, so a result you can read is a
  // result whose conservation and budget invariants held.
  double coverage_mean = 0;
  int64_t degraded = 0;
  int64_t retries = 0;
  int64_t dropped_crash = 0;
  int64_t faults_injected = 0;
  // Order-sensitive digest of the latency recorder after the measurement
  // window — the golden-regression anchor (tests/bench_determinism_test.cc).
  uint64_t latency_digest = 0;
};

// --- Observability artifacts --------------------------------------------------
//
// When a spec enables obs.* (src/obs/obs.h), RunSingleBox builds a per-run
// ObsContext, registers every layer with its tracer, samples metrics over the
// run, and — if the caller passes an ObsArtifacts — exports the run's trace
// and metrics payloads. The tracer is passive, so an observed run produces
// bit-identical latency digests to an unobserved one (pinned by
// tests/bench_determinism_test.cc).
struct ObsArtifacts {
  bool enabled = false;      // set by RunSingleBox when the spec enabled obs
  std::string trace_json;    // Chrome-trace-event JSON (Perfetto-loadable)
  std::string metrics_json;  // TimeseriesSampler timeseries payload
  std::string attribution;   // P99-cohort table ("" when nothing was traced)
};

// The observability configuration benches use for their flagship traced run:
// slowest-k trace retention (the P99 cohort is what the attribution table
// explains; retaining every query would dwarf the BENCH_ report) with the
// default full-rate metrics sampling.
ScenarioSpec WithBenchObs(ScenarioSpec spec);

// Takes the run's closing metrics sample at `now` and, when `obs` is given,
// fills it from `ctx`'s tracer and sampler: the one export every traced
// bench run goes through.
void ExportObsArtifacts(ObsContext& ctx, SimTime now, ObsArtifacts* obs);

// Path of `filename` in the bench output directory (PERFISO_BENCH_OUT, or
// the working directory when unset).
std::string BenchOutPath(const std::string& filename);

// Writes TRACE_<name>.json / METRICS_<name>.json into the bench output
// directory and prints the tail-attribution table. No-op when `obs.enabled`
// is false, so benches call it unconditionally.
void WriteObsArtifacts(const std::string& name, const ObsArtifacts& obs);

// Runs one single-box spec (topology.columns must be 0). Aborts loudly on an
// invalid spec — benches are not in the error-propagation business.
SingleBoxResult RunSingleBox(const ScenarioSpec& scenario,
                             const IndexNodeOptions& node = IndexNodeOptions{},
                             ObsArtifacts* obs = nullptr);

// --- Scenario registry --------------------------------------------------------
//
// Canonical named scenarios: the figure settings (standalone, bully tiers,
// each isolation technique) plus the load-shape library (diurnal day, flash
// crowd, burst train, ramp, closed-loop saturation). Keyed by name;
// FindScenario returns NotFound for unknown names.

std::vector<std::string> ScenarioNames();
StatusOr<ScenarioSpec> FindScenario(const std::string& name);
// Bench-main variant: aborts with the status message on an unknown name.
ScenarioSpec MustFindScenario(const std::string& name);

// Sweep runner: resolves each name in the registry and runs the single-box
// specs through the parallel runner, returning results in input order.
// Aborts on unknown names or cluster specs.
std::vector<SingleBoxResult> RunNamedScenarios(const std::vector<std::string>& names);

// --- Cluster scenarios --------------------------------------------------------

// Builds ClusterOptions from a cluster spec (topology.columns > 0 required).
ClusterOptions MakeClusterOptions(const ScenarioSpec& scenario);

// Starts the spec's tenant mix and PerfIso config on every index node.
// Aborts if PerfIso fails to start (mirrors RunSingleBox).
void ApplyScenarioTenants(Cluster* cluster, const ScenarioSpec& scenario);

// --- Partition-parallel cluster runner ----------------------------------------
//
// RunClusterScenario drives one cluster spec end to end. When the spec sets
// sim_partitions >= 2 the cluster is sharded across that many simulator
// partitions (src/sim/parallel.h) running in conservative lockstep windows of
// width FabricConfig::base_latency — the cross-partition latency floor, i.e.
// the PDES lookahead, which the Fabric constructor requires to be positive.
// Results are a pure function of (spec, partition count): bit-identical
// digests at any worker thread count (pinned by
// tests/cluster_partition_determinism_test.cc). Specs with fault injection,
// which the partitioned engine does not support, fall back to a sequential
// run with a warning (fell_back_sequential below). Cluster specs cannot
// enable obs: ScenarioSpec::Validate rejects it.

// Worker threads for partitioned runs: PERFISO_SIM_THREADS when set
// (1 = single-threaded lockstep), otherwise the hardware concurrency. Read
// each call so determinism tests can flip it at runtime.
int SimThreads();

struct ClusterRunResult {
  // Order-sensitive digests of the per-layer latency recorders — the
  // partition-determinism anchors.
  uint64_t leaf_digest = 0;
  uint64_t mla_digest = 0;
  uint64_t tla_digest = 0;
  uint64_t flow_digest = 0;  // primary-class fabric flow latency
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t degraded = 0;
  double tla_p99_ms = 0;
  double tla_mean_ms = 0;
  double mean_busy = 0;
  int64_t faults_injected = 0;
  uint64_t events_executed = 0;
  int partitions_used = 1;  // 1 = sequential
  int threads_used = 1;
  bool fell_back_sequential = false;  // partitioning requested but unsupported
};

ClusterRunResult RunClusterScenario(const ScenarioSpec& scenario);

// --- Parallel scenario runner ------------------------------------------------
//
// Scenario rows are embarrassingly parallel: each owns a fully isolated
// Simulator and seeds its RNGs deterministically, so a row's result is a pure
// function of its inputs — running rows across hardware threads produces
// bit-identical metrics to a sequential run (the determinism contract in
// DESIGN.md). Jobs must not print or touch shared mutable state; compute in
// the job, then print/record from the results vector in input order.

// Worker count: PERFISO_BENCH_THREADS when set (1 = force sequential),
// otherwise the hardware concurrency.
int BenchThreads();

// Runs every job (each returning a Result) and returns results in input
// order, regardless of which worker ran which job.
template <typename Result>
std::vector<Result> RunParallel(std::vector<std::function<Result()>> jobs) {
  std::vector<Result> results(jobs.size());
  const int workers =
      std::min<int>(BenchThreads(), static_cast<int>(jobs.size()));
  if (workers <= 1) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      results[i] = jobs[i]();
    }
    return results;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
        results[i] = jobs[i]();
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return results;
}

// Runs single-box scenario rows in parallel (one isolated Simulator each);
// results come back in input order.
std::vector<SingleBoxResult> RunScenarios(const std::vector<ScenarioSpec>& scenarios);

// --- Machine-readable reports ------------------------------------------------
//
// Every bench binary calls StartReport("<name>") once at startup; rows are
// then accumulated (PrintRow records automatically) and serialized to
// BENCH_<name>.json when the process exits — this is the perf-baseline
// trajectory the ROADMAP tracks. The output directory defaults to the current
// working directory and can be overridden with PERFISO_BENCH_OUT.

// Opens the report and registers the at-exit writer. Safe to call once only.
void StartReport(const std::string& bench_name);
// Records one row of named metrics (generic form, for cluster-style benches).
void ReportRow(const std::string& label,
               const std::vector<std::pair<std::string, double>>& metrics);
// Records the standard single-box row (what PrintRow also does internally).
void RecordRow(const std::string& label, const SingleBoxResult& result);
// Serializes the report now; otherwise runs automatically at exit. A report
// (or any other bench artifact) that cannot be written ends the process with
// status 1.
void FinishReport();

// --- Output helpers -----------------------------------------------------------

void PrintHeader(const std::string& title, const std::string& figure,
                 const std::string& paper_summary);
// Prints one labeled result row with the standard latency/util columns, and
// records it into the active report.
void PrintRow(const std::string& label, const SingleBoxResult& result);
void PrintRowHeader();
// "paper: ..." annotation line under a row.
void PrintPaperNote(const std::string& note);

}  // namespace bench
}  // namespace perfiso

#endif  // PERFISO_BENCH_HARNESS_H_
