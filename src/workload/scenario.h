// Declarative scenario specifications.
//
// A ScenarioSpec names everything one experiment needs — a load shape, the
// replay client (open- or closed-loop), a secondary-tenant mix, a topology,
// and an optional PerfIso configuration — and serializes through the same
// key=value ConfigMap format PerfIsoConfig uses (§4). Benches
// and tests enumerate scenarios from the registry in bench/harness.h by name
// instead of hand-rolling structs; a spec parsed from a config file runs the
// exact same experiment as a compiled-in one.
//
// Key namespace: all scenario keys live under `workload.`; the embedded
// PerfIso configuration (when `workload.isolation = perfiso`) is flattened
// under `perfiso.`, and observability knobs under `obs.` (src/obs/obs.h).
// Unknown keys in any namespace are rejected at parse time so a typo'd knob
// fails loudly instead of silently running defaults.
#ifndef PERFISO_SRC_WORKLOAD_SCENARIO_H_
#define PERFISO_SRC_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/cluster/topology.h"
#include "src/fault/fault_plan.h"
#include "src/obs/obs.h"
#include "src/perfiso/perfiso_config.h"
#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"
#include "src/workload/load_shape.h"

namespace perfiso {

// Which replay client drives the load (src/workload/query_trace.h).
enum class ClientKind {
  kOpenLoop,    // Poisson arrivals at the load shape's intensity
  kClosedLoop,  // fixed user population with think time (saturation studies)
};

const char* ClientKindName(ClientKind kind);
StatusOr<ClientKind> ParseClientKind(const std::string& name);

// The secondary tenants colocated with the index server. All run inside the
// machine's unified secondary job object (§4).
struct TenantMixSpec {
  int cpu_bully_threads = 0;  // 0 = no CPU bully
  bool disk_bully = false;
  bool hdfs_client = false;
  bool ml_training = false;
  int ml_worker_threads = 48;
};

// Closed-loop client parameters (ignored for kOpenLoop).
struct ClosedLoopSpec {
  int outstanding = 32;
  SimDuration think_time = FromMillis(1);
};

struct ScenarioSpec {
  std::string name;  // registry key; informational in serialized form

  LoadShapeSpec load;
  ClientKind client = ClientKind::kOpenLoop;
  ClosedLoopSpec closed;
  TenantMixSpec tenants;
  TopologySpec topology;

  // Partition-parallel execution (workload.sim.partitions). 0 = sequential
  // (the default; nothing is serialized, so legacy configs and golden digests
  // are untouched). N >= 2 shards a cluster topology into N simulator
  // partitions — partition 0 for the TLAs + client, rows round-robined over
  // the rest — run in conservative lockstep windows (DESIGN.md §10). Results
  // are a pure function of (spec, partitions), identical at any worker thread
  // count; PERFISO_SIM_THREADS picks the thread count at run time. Only
  // meaningful for cluster topologies (columns > 0).
  int sim_partitions = 0;

  // nullopt = no isolation (the paper's "No isolation" rows).
  std::optional<PerfIsoConfig> perfiso;

  // Observability knobs (obs.* namespace). Disabled by default: nothing is
  // serialized and the run constructs no ObsContext, so legacy configs and
  // golden digests are untouched.
  ObsSpec obs;

  // Fault plan (fault.* namespace). Same contract as obs: disabled by
  // default, serializes nothing, constructs no FaultInjector, and leaves
  // every golden digest bit-identical.
  FaultPlan fault;

  SimDuration warmup = kSecond;
  SimDuration measure = 8 * kSecond;  // benches scale this by BenchScale()

  // Trace replay determinism: the synthetic trace and both clients draw from
  // fixed seeds, so a spec's result is a pure function of its fields (the
  // parallel-runner contract, DESIGN.md §4).
  size_t trace_count = 20000;
  uint64_t trace_seed = 2017;
  uint64_t client_seed = 7;
  uint64_t node_seed = 77;

  // Serialization to/from the key=value config format. ToConfigMap emits only
  // the keys relevant to the active shape/client/isolation, so a round trip
  // preserves exactly the knobs that matter.
  ConfigMap ToConfigMap() const;
  static StatusOr<ScenarioSpec> FromConfigMap(const ConfigMap& map);

  // Rejects invalid shapes (negative rates, empty piecewise tables), bad
  // client/topology parameters, and non-positive windows.
  Status Validate() const;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_WORKLOAD_SCENARIO_H_
