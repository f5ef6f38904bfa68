// LinuxPlatform: Platform implementation over real Linux syscalls.
//
// Substitutions for the Windows primitives the paper uses:
//   * idle-core bitmask syscall  ->  short-window per-CPU /proc/stat deltas
//     (a CPU is "idle" if it spent >= idle_threshold of the sampling window
//     in idle+iowait). The Windows call is instantaneous; this is the closest
//     unprivileged Linux equivalent and is documented in DESIGN.md.
//   * Job Object affinity        ->  sched_setaffinity(2) applied to every
//     task of every registered secondary pid.
//   * Job Object CPU rate cap    ->  cgroup v2 cpu.max (best effort: returns
//     UNAVAILABLE when the process lacks cgroup write access).
//   * suspend on empty mask      ->  SIGSTOP / SIGCONT.
//
// I/O and egress throttling return UNIMPLEMENTED here: production equivalents
// (blkio cgroups, tc/HTB) need privileges this library does not assume.
#ifndef PERFISO_SRC_PLATFORM_LINUX_PLATFORM_H_
#define PERFISO_SRC_PLATFORM_LINUX_PLATFORM_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "src/platform/platform.h"

namespace perfiso {

class LinuxPlatform : public Platform {
 public:
  struct Options {
    // Fraction of the sampling window a CPU must be idle to count as idle.
    double idle_threshold = 0.9;
    // cgroup v2 directory for the secondary (for the CPU rate cap); empty
    // disables the cgroup path.
    std::string cgroup_dir;
    // Override for /proc (tests point this at a fixture directory).
    std::string proc_root = "/proc";
  };

  LinuxPlatform();
  explicit LinuxPlatform(Options options);

  // Registers a secondary-tenant process (and, transitively, its tasks).
  void AddSecondaryPid(pid_t pid);

  // Platform:
  int NumCores() const override;
  SimTime NowNs() override;
  CpuSet IdleCores() override;
  Status SetSecondaryAffinity(const CpuSet& mask) override;
  Status SetSecondaryCpuRateCap(double fraction) override;
  StatusOr<int64_t> FreeMemoryBytes() override;
  Status KillSecondary() override;
  Status SetIoPriority(int owner, int priority) override;
  Status SetIoIopsCap(int owner, double iops) override;
  Status SetIoBandwidthCap(int owner, double bytes_per_sec) override;
  StatusOr<int64_t> IoOpsCompleted(int owner) override;
  Status SetEgressRateCap(double bytes_per_sec) override;

  // Exposed for tests: parses the cpuN lines of a /proc/stat snapshot into
  // per-cpu (idle_jiffies, total_jiffies) pairs.
  struct CpuSample {
    int64_t idle = 0;
    int64_t total = 0;
  };
  static StatusOr<std::vector<CpuSample>> ParseProcStat(const std::string& text);

  // Exposed for tests: idle decision from two samples.
  static CpuSet IdleFromSamples(const std::vector<CpuSample>& prev,
                                const std::vector<CpuSample>& curr, double threshold);

 private:
  Status ApplyAffinityToPid(pid_t pid, const CpuSet& mask);
  Status SignalSecondary(int signo);

  Options options_;
  std::vector<pid_t> pids_;
  std::vector<CpuSample> last_sample_;
  bool suspended_ = false;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_PLATFORM_LINUX_PLATFORM_H_
