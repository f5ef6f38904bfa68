// Seeded fault-scenario fuzz smoke: random (but replayable) FaultPlans run
// against registry scenarios, with the full InvariantChecker asserted after
// every run. A failure prints the serialized ScenarioSpec — paste it back
// through ScenarioSpec::FromConfigMap to replay the exact run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariant_checker.h"
#include "src/sim/simulator.h"
#include "src/workload/query_trace.h"

namespace perfiso {
namespace {

// Shrinks a registry spec to fuzz size: short window, small trace.
ScenarioSpec FuzzSized(ScenarioSpec spec) {
  spec.measure = 2 * kSecond;
  spec.trace_count = 4000;
  return spec;
}

// One fuzz iteration: arm `plan` on the spec's single-box rig, drive the
// spec's client over warmup+measure, keep simulating through the recovery
// tail, then assert every invariant. Returns the failure report ("" if ok).
std::string RunSingleBoxFuzz(ScenarioSpec spec, const FaultPlan& plan) {
  spec.fault = plan;
  const Status valid = spec.Validate();
  if (!valid.ok()) {
    return "sampled spec failed Validate(): " + valid.ToString();
  }
  const std::string replay = spec.ToConfigMap().Serialize();

  Simulator sim;
  const std::unique_ptr<IndexNodeRig> rig = bench::MakeSingleBoxRig(&sim, spec);
  FaultInjector injector(&sim, spec.fault, rig.get());
  injector.Arm();

  Rng trace_rng(spec.trace_seed);
  auto trace = GenerateTrace(TraceSpec{}, spec.trace_count, &trace_rng);
  OpenLoopClient client(&sim, std::move(trace), spec.load, Rng(spec.client_seed),
                        [&rig](const QueryWork& work, SimTime) {
                          rig->server().SubmitQuery(work);
                        });
  const SimDuration horizon = spec.warmup + spec.measure;
  client.Run(0, horizon);
  // Run past the horizon so recovery events land; bully loop threads keep the
  // event queue alive forever, so this cannot be RunUntilEmpty.
  sim.RunUntil(horizon + 2 * kSecond);

  InvariantReport report;
  InvariantChecker::CheckRig(*rig, /*expect_drained=*/false, &report);
  if (report.ok()) {
    return "";
  }
  return report.ToString() + "\nreplay this run with the scenario:\n" + replay;
}

TEST(FaultFuzzTest, RandomPlansHoldInvariantsOnRegistryScenarios) {
  const char* const kScenarios[] = {"standalone", "flash-crowd-blind"};
  for (const char* name : kScenarios) {
    const ScenarioSpec base = FuzzSized(bench::MustFindScenario(name));
    const double horizon_sec = ToSeconds(base.warmup + base.measure);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const FaultPlan plan = FaultPlan::Sample(seed, /*num_nodes=*/1, horizon_sec);
      const std::string failure = RunSingleBoxFuzz(base, plan);
      EXPECT_TRUE(failure.empty())
          << "scenario " << name << ", fault seed " << seed << ":\n" << failure;
    }
  }
}

TEST(FaultFuzzTest, RandomPlansHoldInvariantsOnCluster) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Simulator sim;
    ClusterOptions options;
    options.topology = TopologySpec{2, 2, 1};
    Cluster cluster(&sim, options);
    const FaultPlan plan = FaultPlan::Sample(seed, cluster.NumIndexNodes(),
                                             /*horizon_sec=*/2.0);
    FaultInjector injector(&sim, plan, &cluster);
    injector.Arm();

    Rng trace_rng(2017);
    auto trace = GenerateTrace(TraceSpec{}, 4000, &trace_rng);
    OpenLoopClient client(&sim, std::move(trace), /*qps=*/2000, Rng(7),
                          [&cluster](const QueryWork& work, SimTime) {
                            cluster.SubmitQuery(work);
                          });
    client.Run(0, 2 * kSecond);
    sim.RunUntil(4 * kSecond);

    InvariantReport report;
    InvariantChecker::CheckCluster(cluster, /*expect_drained=*/false, &report);
    ConfigMap replay;
    plan.AppendToConfigMap(&replay);
    EXPECT_TRUE(report.ok()) << "fault seed " << seed << ":\n" << report.ToString()
                             << "\nreplay plan:\n" << replay.Serialize();
  }
}

}  // namespace
}  // namespace perfiso
