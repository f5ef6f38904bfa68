// PerfIsoConfig: every tunable of the framework, serializable to the
// cluster-wide key=value config format (§4). It holds only what PerfIso
// applies: the fabric (link rates, racks, propagation delay) is the
// environment, configured through FabricConfig, and a fabric key here is
// rejected as unknown.
#ifndef PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_
#define PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/perfiso/policy.h"
#include "src/util/config.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace perfiso {

// How the CPU side of the secondary is managed.
enum class CpuIsolationMode {
  kNone,            // colocation without isolation (the paper's "No isolation")
  kBlindIsolation,  // §3.1, the paper's contribution
  kStaticCores,     // OS-native static core restriction (§6.1.4)
  kCpuRateCap,      // OS-native CPU-cycle restriction (§6.1.4)
};

const char* CpuIsolationModeName(CpuIsolationMode mode);
StatusOr<CpuIsolationMode> ParseCpuIsolationMode(const std::string& name);

// Static I/O limit for one secondary I/O owner (e.g. "HDFS clients are
// limited to 60 MB/s", §5.3).
struct IoOwnerLimit {
  int owner = 0;
  double bandwidth_bps = 0;  // <= 0: none
  double iops = 0;           // <= 0: none
  int priority = 2;          // scheduler band, 0 = highest
  double weight = 1.0;       // DWRR weight
  double min_iops_guarantee = 0;  // lim_i in the deficit formula (§4.1)
};

struct PerfIsoConfig {
  // Kill switch (§4.2): when false the controller restores OS defaults and
  // stops intervening, so PerfIso can be excluded while debugging livesite
  // issues.
  bool enabled = true;

  CpuIsolationMode cpu_mode = CpuIsolationMode::kBlindIsolation;
  BlindIsolationSettings blind;
  int static_secondary_cores = 8;   // for kStaticCores
  double cpu_rate_cap = 0.05;       // for kCpuRateCap
  SimDuration poll_interval = FromMillis(1);

  // Memory watchdog (§3.2: "when memory runs very low, secondary processes
  // are killed").
  int64_t min_free_memory_bytes = 4LL * 1024 * 1024 * 1024;
  int memory_check_every_n_polls = 256;

  // Egress throttle for the secondary (§3.2); <= 0 disables. The other half
  // of §3.2's network isolation, low-priority marking, is fixed: NIC TX
  // always serves primary traffic first (src/net/netdev.h).
  double egress_rate_cap_bps = 0;

  // Static I/O limits and DWRR parameters for secondary I/O owners.
  std::vector<IoOwnerLimit> io_limits;
  // Moving-average window (in polls) for the I/O throttler's IOPS estimate.
  int io_window_polls = 16;
  SimDuration io_poll_interval = FromMillis(100);

  // Serialization to/from the key=value config format. I/O limits use keys
  // io.owner.<id>.bandwidth_bps etc. An unknown key is an error, so typos
  // fail loudly instead of silently running defaults.
  ConfigMap ToConfigMap() const;
  static StatusOr<PerfIsoConfig> FromConfigMap(const ConfigMap& map);

  // Validation used by the controller before applying.
  Status Validate(int num_cores) const;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PERFISO_PERFISO_CONFIG_H_
