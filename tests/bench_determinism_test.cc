// Determinism contract of the simulation + the parallel bench runner: a
// scenario's result is a pure function of its inputs. The same scenario run
// twice — or through RunScenarios() on worker threads — must produce
// bit-identical metric rows, event counts, and latency-recorder digests.
// fig09/fig10-style reference-tolerance checks only make sense on top of
// this.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

using bench::RunParallel;
using bench::RunScenarios;
using bench::RunSingleBox;
using bench::SingleBoxResult;
using bench::SingleBoxScenario;

// Every metric compared with exact equality: these are doubles produced by
// deterministic integer-time simulation, so reruns must match to the bit.
void ExpectIdentical(const SingleBoxResult& a, const SingleBoxResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.p50_ms, b.p50_ms) << what;
  EXPECT_EQ(a.p95_ms, b.p95_ms) << what;
  EXPECT_EQ(a.p99_ms, b.p99_ms) << what;
  EXPECT_EQ(a.mean_ms, b.mean_ms) << what;
  EXPECT_EQ(a.drop_fraction, b.drop_fraction) << what;
  EXPECT_EQ(a.primary_util, b.primary_util) << what;
  EXPECT_EQ(a.secondary_util, b.secondary_util) << what;
  EXPECT_EQ(a.os_util, b.os_util) << what;
  EXPECT_EQ(a.idle_fraction, b.idle_fraction) << what;
  EXPECT_EQ(a.secondary_progress, b.secondary_progress) << what;
  EXPECT_EQ(a.hedges, b.hedges) << what;
  EXPECT_EQ(a.queries, b.queries) << what;
  EXPECT_EQ(a.latency_digest, b.latency_digest) << what;
}

SingleBoxScenario Fig04Style(double qps, int bully_threads) {
  SingleBoxScenario scenario;
  scenario.load = ConstantLoad(qps);
  scenario.tenants.cpu_bully_threads = bully_threads;
  scenario.measure = kSecond;  // keep the test quick; shape matches fig04
  return scenario;
}

// Restores an environment variable on scope exit, so a mid-test ASSERT
// cannot leak a pinned value into later tests in the binary (and a caller's
// own setting survives the test).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    old_value_ = had_old_ ? old : "";
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_value_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_value_;
};

TEST(BenchDeterminismTest, Fig04StyleScenarioIsBitIdenticalAcrossRuns) {
  const SingleBoxScenario scenario = Fig04Style(2000, 24);
  const SingleBoxResult first = RunSingleBox(scenario);
  const SingleBoxResult second = RunSingleBox(scenario);
  ExpectIdentical(first, second, "sequential rerun");
}

TEST(BenchDeterminismTest, ParallelRunnerMatchesSequentialBitExactly) {
  std::vector<SingleBoxScenario> scenarios = {
      Fig04Style(2000, 0),
      Fig04Style(2000, 24),
      Fig04Style(4000, 48),
  };

  // Force real worker threads even on single-core CI, then a sequential pass.
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "4", 1), 0);
  const std::vector<SingleBoxResult> parallel = RunScenarios(scenarios);
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "1", 1), 0);
  const std::vector<SingleBoxResult> sequential = RunScenarios(scenarios);
  ASSERT_EQ(unsetenv("PERFISO_BENCH_THREADS"), 0);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectIdentical(parallel[i], sequential[i], "row " + std::to_string(i));
  }
}

struct ClusterDigest {
  uint64_t events = 0;
  uint64_t leaf = 0;
  uint64_t mla = 0;
  uint64_t tla = 0;
  int64_t completed = 0;

  bool operator==(const ClusterDigest&) const = default;
};

// A miniature fig09: a cluster with HDFS + CPU bully + PerfIso per node,
// digested down to event counts and latency-recorder digests.
ClusterDigest RunFig09Style() {
  Simulator sim;
  ClusterOptions options;
  options.topology = TopologySpec{2, 1, 2};
  Cluster cluster(&sim, options);
  cluster.ForEachIndexNode([&](IndexNodeRig& node) {
    node.StartHdfsClient(HdfsClient::Options{});
    node.StartCpuBully(48);
    PerfIsoConfig config;
    config.cpu_mode = CpuIsolationMode::kBlindIsolation;
    config.blind.buffer_cores = 8;
    Status status = node.StartPerfIso(config);
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
    }
  });

  Rng trace_rng(4242);
  auto trace = GenerateTrace(TraceSpec{}, 2000, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), /*qps=*/800, Rng(9),
                        [&cluster](const QueryWork& work, SimTime) {
                          cluster.SubmitQuery(work);
                        });
  client.Run(0, 2 * kSecond);
  sim.RunUntil(2 * kSecond);

  ClusterDigest digest;
  digest.events = sim.EventsExecuted();
  digest.leaf = cluster.MergedLeafLatency().Digest();
  digest.mla = cluster.MlaLatency().Digest();
  digest.tla = cluster.TlaLatency().Digest();
  digest.completed = cluster.queries_completed();
  return digest;
}

// The load-shape engine rides the same contract: shaped (thinned) arrival
// streams and the closed-loop client are pure functions of the spec, so
// registry scenarios run bit-identically on worker threads too. Run at a
// reduced bench scale so ScaleScenarioForBench's timeline compression (the
// spike, the bursts, the full diurnal period — all inside a ~1 s window) is
// on the tested path.
TEST(BenchDeterminismTest, ShapedScenariosParallelMatchesSequential) {
  const char* kNames[] = {"diurnal-blind", "flash-crowd-no-isolation",
                          "burst-train-blind", "closed-loop-saturation"};
  std::vector<SingleBoxScenario> scenarios;
  for (const char* name : kNames) {
    auto spec = bench::FindScenario(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    scenarios.push_back(*spec);
  }

  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "0.05");
  const ScopedEnv threads_guard("PERFISO_BENCH_THREADS", "4");
  const std::vector<SingleBoxResult> parallel = RunScenarios(scenarios);
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "1", 1), 0);
  const std::vector<SingleBoxResult> sequential = RunScenarios(scenarios);

  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    ExpectIdentical(parallel[i], sequential[i], kNames[i]);
    EXPECT_GT(parallel[i].queries, 0) << kNames[i];
  }
}

// --- Golden digests ----------------------------------------------------------
//
// Two named scenarios pinned at fixed seed/scale: a workload refactor that
// silently changes simulation results (instead of just restructuring code)
// trips these, because the latency digest hashes every sample in order.
//
// Update procedure (ONLY when a results-affecting change is intended, and
// say so in the commit message):
//   PERFISO_UPDATE_GOLDENS=1 ./bench_determinism_test \
//       --gtest_filter='*PinnedScenario*'
// prints the new table; paste it over kGoldens below. The values depend on
// libm (exp/log/cos in the RNG and load shapes), so they are tied to the
// toolchain the suite runs on; a digest mismatch after a compiler/libc bump
// with no simulation change is update-worthy, not a regression.
struct Golden {
  const char* scenario;
  uint64_t digest;
  int64_t queries;
};

constexpr Golden kGoldens[] = {
    {"diurnal-blind", 0x6a520f8c86032a81ULL, 2386},
    {"flash-crowd-no-isolation", 0x2f584ed6577403cfULL, 8907},
};

TEST(GoldenDigestTest, PinnedScenarioDigests) {
  // Fixed scale regardless of the caller's bench environment.
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");

  const bool update = std::getenv("PERFISO_UPDATE_GOLDENS") != nullptr;
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 3 * kSecond;  // fixed, fast window (flash spike at t=3s is inside)
    const SingleBoxResult result = RunSingleBox(*spec);
    if (update) {
      std::printf("    {\"%s\", 0x%016llxULL, %lld},\n", golden.scenario,
                  static_cast<unsigned long long>(result.latency_digest),
                  static_cast<long long>(result.queries));
      continue;
    }
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": digest changed — a workload refactor altered "
        << "simulation results (see the update procedure above)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
  }
}

// The observability subsystem is contractually passive: with tracing and
// metrics enabled at FULL sampling (every query retained, sampler ticking),
// the pinned goldens must still match bit-for-bit. The tracer never draws
// from simulation RNG streams and the sampler only reads metric state, so
// turning obs on cannot move a single sample.
TEST(GoldenDigestTest, FullSamplingObservabilityLeavesDigestsUnchanged) {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 3 * kSecond;
    spec->obs.enabled = true;
    spec->obs.sampling = TraceSampling::kAll;
    bench::ObsArtifacts obs;
    const SingleBoxResult result = RunSingleBox(*spec, {}, &obs);
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": enabling observability changed simulation "
        << "results — the tracer/sampler must stay passive (DESIGN.md §7)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    // And the run actually produced artifacts (obs was not silently off).
    EXPECT_TRUE(obs.enabled);
    EXPECT_NE(obs.trace_json.find("\"traceEvents\""), std::string::npos);
    EXPECT_FALSE(obs.attribution.empty());
    EXPECT_NE(obs.metrics_json.find("\"series\""), std::string::npos);
  }
}

// The fault subsystem is contractually inert while disabled (DESIGN.md §8):
// with the fault plan left disabled — even with a different fault seed and a
// staged (but disabled) event list — the pinned goldens must match
// bit-for-bit. No RNG stream forks, no event is scheduled, and the retry /
// degradation paths in the server are fully gated.
TEST(GoldenDigestTest, DisabledFaultPlanLeavesDigestsUnchanged) {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");
  for (const Golden& golden : kGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 3 * kSecond;
    spec->fault.enabled = false;  // explicit, with non-default fields staged
    spec->fault.seed = 0xdeadbeef;
    spec->fault.events.push_back(
        FaultEvent{FaultKind::kNodeCrash, 0, /*at_sec=*/1.5, /*duration_sec=*/1.0, 1.0});
    const SingleBoxResult result = RunSingleBox(*spec);
    EXPECT_EQ(result.latency_digest, golden.digest)
        << golden.scenario << ": a disabled fault plan changed simulation "
        << "results — the fault subsystem must be inert when off (DESIGN.md §8)";
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    EXPECT_EQ(result.faults_injected, 0);
    EXPECT_EQ(result.dropped_crash, 0);
  }
}

// Rows pinned like kGoldens, but on the lifecycle transitions those two never
// take: the machine's CPU-rate-cap throttle and unthrottle (blind-high run as
// the §6.1.4 cycle-cap baseline), and the server's crash, crash-reject and
// restart paths. They live in their own table because kGoldens also feeds the
// disabled-fault and obs-passivity tests, which a fault row would break.
// Same update procedure as kGoldens.
struct TransitionGolden {
  const char* scenario;
  bool rate_cap;  // run with cpu_mode = kCpuRateCap
  uint64_t digest;
  int64_t queries;
  int64_t dropped_crash;
  double secondary_progress;
};

constexpr TransitionGolden kTransitionGoldens[] = {
    {"blind-high", true, 0x6d16ed3c5fbe9295ULL, 9822, 0, 0x1.70a3d63d27c28p+3},
    {"fault-crash-restart", false, 0x118d56650950fcaaULL, 9822, 3913, 0x0p+0},
};

TEST(GoldenDigestTest, PinnedTransitionDigests) {
  const ScopedEnv scale_guard("PERFISO_BENCH_SCALE", "1");
  const bool update = std::getenv("PERFISO_UPDATE_GOLDENS") != nullptr;
  for (const TransitionGolden& golden : kTransitionGoldens) {
    auto spec = bench::FindScenario(golden.scenario);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    spec->measure = 5 * kSecond;  // the crash at t=3s and the restart at t=5s are inside
    if (golden.rate_cap) {
      spec->perfiso->cpu_mode = CpuIsolationMode::kCpuRateCap;
    }
    const SingleBoxResult result = RunSingleBox(*spec);
    if (update) {
      std::printf("    {\"%s\", %s, 0x%016llxULL, %lld, %lld, %a},\n", golden.scenario,
                  golden.rate_cap ? "true" : "false",
                  static_cast<unsigned long long>(result.latency_digest),
                  static_cast<long long>(result.queries),
                  static_cast<long long>(result.dropped_crash), result.secondary_progress);
      continue;
    }
    EXPECT_EQ(result.latency_digest, golden.digest) << golden.scenario;
    EXPECT_EQ(result.queries, golden.queries) << golden.scenario;
    EXPECT_EQ(result.dropped_crash, golden.dropped_crash) << golden.scenario;
    EXPECT_EQ(result.secondary_progress, golden.secondary_progress) << golden.scenario;
  }
}

TEST(BenchDeterminismTest, Fig09StyleClusterDigestsAreIdentical) {
  const ClusterDigest first = RunFig09Style();
  const ClusterDigest second = RunFig09Style();
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.leaf, second.leaf);
  EXPECT_EQ(first.mla, second.mla);
  EXPECT_EQ(first.tla, second.tla);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_GT(first.completed, 0);

  // The cluster digest must also be stable when computed on worker threads
  // next to another simulation (no hidden shared state between Simulators).
  ASSERT_EQ(setenv("PERFISO_BENCH_THREADS", "2", 1), 0);
  const std::vector<ClusterDigest> parallel = RunParallel<ClusterDigest>({
      [] { return RunFig09Style(); },
      [] { return RunFig09Style(); },
  });
  ASSERT_EQ(unsetenv("PERFISO_BENCH_THREADS"), 0);
  EXPECT_EQ(parallel[0], first);
  EXPECT_EQ(parallel[1], first);
}

}  // namespace
}  // namespace perfiso
