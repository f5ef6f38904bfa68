// The cluster shape of §5.3 / Fig. 3, shared by ClusterOptions and the
// declarative ScenarioSpec. Standalone so the scenario layer can name a
// topology without depending on the cluster.
#ifndef PERFISO_SRC_CLUSTER_TOPOLOGY_H_
#define PERFISO_SRC_CLUSTER_TOPOLOGY_H_

namespace perfiso {

// columns == 0 selects the single-box rigs of Figs. 4-8 (a ScenarioSpec's
// default); columns > 0 selects the TLA/MLA cluster of Figs. 9-10.
struct TopologySpec {
  int columns = 0;
  int rows = 2;
  int tla_machines = 2;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_CLUSTER_TOPOLOGY_H_
