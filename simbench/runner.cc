// simbench runner: one repetition of one benchmark workload per process.
//
// Builds the workload's scenario through the simulator's public APIs
// (Cluster / ParallelSimulation, ApplyScenarioTenants, GenerateTrace,
// OpenLoopClient), runs the warm-up and the measurement window, checks the
// cluster invariants, and prints one JSON object on stdout: host timings,
// modelled results, digests, engine mode and — in traced mode — per-layer
// counters. simbench/run.py drives repetitions, cross-run checks and
// aggregation; see simbench/README.md for the metric definitions.
//
// Usage: simbench_runner --workload NAME --seed N [--traced PREFIX | --setup-only]
//
// --setup-only stops at the first simulated event and reports setup_s alone,
// so run.py can take the median of several cheap set-ups per run.
// --traced records spans around every call this file makes into the
// simulator (setup steps, fixed simulated-time slices of the run, each
// SubmitQuery call, each completion callback, readout, invariant check) and
// snapshots the layer counters at every slice boundary. Spans and slice
// counters stay in memory and are written to PREFIX.trace.json (Chrome trace
// events, loadable in Perfetto) and PREFIX.slices.csv when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/cluster.h"
#include "src/fault/invariant_checker.h"
#include "src/sim/parallel.h"
#include "src/workload/query_trace.h"
#include "src/workload/scenario.h"

namespace {

using namespace perfiso;
using Clock = std::chrono::steady_clock;

// The partitioned engine's shape: partition 0 for the TLAs and the client,
// one partition per index-row shard (fig_cluster_scale's configuration).
constexpr int kPdesPartitions = 21;
// One thread runs every partition in lockstep: the same windows, mailboxes
// and merges as a worker pool, without a barrier wake-up per window. On a
// shared 4-vCPU VM those wake-ups made host time vary 2-5x between
// repetitions with 2 or 4 workers; bench/fig_cluster_scale measures the
// thread scaling.
constexpr int kPdesThreads = 1;
// Simulated length of one traced slice (rounded to the PDES window grid).
constexpr SimDuration kSliceLength = FromMillis(50);

// --- Workloads -----------------------------------------------------------------

struct Workload {
  ScenarioSpec spec;  // seeded and compressed to the benchmark's size
  int partitions = 0;  // 0 = sequential engine
  uint64_t cluster_seed = 0;
};

// Compresses the day: the measurement window and the diurnal period shrink by
// `factor`, so one run still covers a whole trough-to-peak day.
ScenarioSpec CompressDay(ScenarioSpec spec, double factor) {
  spec.measure = static_cast<SimDuration>(static_cast<double>(spec.measure) * factor);
  spec.load.diurnal_period_sec *= factor;
  return spec;
}

// fig_cluster_scale's 1,000-leaf cluster: 50 rows x 20 columns, 31 TLAs, a
// 2,000 QPS-peak diurnal day, an 8-thread CPU bully and blind isolation
// (B = 8) on every leaf.
ScenarioSpec FleetDaySpec() {
  ScenarioSpec spec;
  spec.name = "fleet-day";
  spec.load = DiurnalLoad(/*peak_qps=*/2000, /*period_sec=*/8, /*trough_fraction=*/0.25);
  spec.measure = 8 * kSecond;
  spec.warmup = kSecond / 2;
  spec.topology = TopologySpec{/*columns=*/20, /*rows=*/50, /*tla_machines=*/31};
  spec.tenants.cpu_bully_threads = 8;
  PerfIsoConfig config;
  config.cpu_mode = CpuIsolationMode::kBlindIsolation;
  config.blind.buffer_cores = 8;
  spec.perfiso = config;
  spec.trace_count = 20000;
  return CompressDay(spec, 0.25);
}

std::optional<Workload> FindWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "fleet-day" || name == "fleet-day-pdes") {
    w.spec = FleetDaySpec();
    w.partitions = name == "fleet-day-pdes" ? kPdesPartitions : 0;
  } else if (name == "prod-colo") {
    w.spec = CompressDay(bench::MustFindScenario("fig10-production"), 0.1);
  } else {
    return std::nullopt;
  }
  w.spec.name = name;
  // Seed 0 is the registry's own seeds. Cluster nodes draw their seeds from
  // ClusterOptions::seed (MakeClusterOptions' node seed is overwritten per
  // node), so the workload seed moves that too.
  w.spec.trace_seed += seed;
  w.spec.client_seed += seed;
  w.spec.node_seed += seed;
  w.cluster_seed = ClusterOptions{}.seed + seed;
  return w;
}

// --- Host measurements ---------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Spans ---------------------------------------------------------------------

// In-memory span log. Spans are only opened and closed by the thread that
// runs partition 0 (the client and the TLAs live there) or by the main thread
// between RunUntil calls, when every partition worker is parked.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent) {
    spans_.push_back(Span{name, Now(), -1, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = Now(); }
  int64_t DurationNs(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return s.end_ns - s.start_ns;
  }

  // Chrome trace events ("X" complete events, microsecond timestamps); the
  // parent index rides in args so self time can be recomputed offline.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                   i == 0 ? "" : ",\n", s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Layer counters ------------------------------------------------------------

// What the benchmark's client observed (the traced run's own counters; they
// are never reset, unlike the cluster's).
struct ClientCounts {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t submit_ns = 0;
};

// Secondary I/O owners started by the scenarios' tenant mixes.
constexpr int kSecondaryIoOwners[] = {kIoOwnerDiskBully, kIoOwnerHdfsClient,
                                      kIoOwnerHdfsReplication, kIoOwnerMlTraining};
constexpr int kPrimaryIoOwners[] = {kIoOwnerIndexData, kIoOwnerIndexLog};

// Cumulative counters of every layer, summed over the cluster. Read through
// public const accessors only. The index-server and fabric counters restart
// at the warm-up ResetStats; the snapshot taken right after that reset makes
// every measurement-window delta a plain subtraction.
using Counters = std::vector<std::pair<const char*, double>>;

Counters SnapshotCounters(Cluster& cluster, const ParallelSimulation& psim,
                          const ClientCounts& client) {
  double events = 0, scheduled = 0, cancelled = 0, cascades = 0, overflow_pulls = 0;
  double callback_heap_allocs = 0, slab_allocs = 0;
  for (int p = 0; p < psim.num_partitions(); ++p) {
    const Simulator::Stats& s = psim.sim(p).stats();
    events += static_cast<double>(s.events_executed);
    scheduled += static_cast<double>(s.events_scheduled);
    cancelled += static_cast<double>(s.events_cancelled);
    cascades += static_cast<double>(s.wheel_cascades);
    overflow_pulls += static_cast<double>(s.overflow_pulls);
    callback_heap_allocs += static_cast<double>(s.callback_heap_allocs);
    slab_allocs += static_cast<double>(s.slab_allocs);
  }
  double dispatches = 0, preemptions = 0, threads_spawned = 0;
  double busy_primary_ns = 0, busy_secondary_ns = 0;
  double polls = 0, affinity_updates = 0, rate_updates = 0, io_polls = 0, io_adjustments = 0;
  double leaf_submitted = 0, hedges = 0, retries = 0, drops = 0;
  double io_primary_ops = 0, io_secondary_bytes = 0, disk_ops = 0;
  cluster.ForEachIndexNode([&](IndexNodeRig& node) {
    const SimMachine::Metrics& m = node.machine().metrics();
    dispatches += static_cast<double>(m.dispatches);
    preemptions += static_cast<double>(m.preemptions);
    threads_spawned += static_cast<double>(m.threads_spawned);
    busy_primary_ns += static_cast<double>(m.busy_ns[static_cast<int>(TenantClass::kPrimary)]);
    busy_secondary_ns +=
        static_cast<double>(m.busy_ns[static_cast<int>(TenantClass::kSecondary)]);
    if (const PerfIsoController* ctl = node.perfiso(); ctl != nullptr) {
      polls += static_cast<double>(ctl->stats().polls);
      affinity_updates += static_cast<double>(ctl->stats().affinity_updates);
      rate_updates += static_cast<double>(ctl->stats().rate_updates);
      io_polls += static_cast<double>(ctl->stats().io_polls);
      if (ctl->io_throttler() != nullptr) {
        io_adjustments += static_cast<double>(ctl->io_throttler()->adjustments());
      }
    }
    const IndexServer::Stats& is = node.server().stats();
    leaf_submitted += static_cast<double>(is.submitted);
    hedges += static_cast<double>(is.hedges_issued);
    retries += static_cast<double>(is.retries_issued);
    drops += static_cast<double>(is.TotalDropped());
    for (const IoScheduler* sched : {&node.ssd_scheduler(), &node.hdd_scheduler()}) {
      for (int owner : kPrimaryIoOwners) {
        io_primary_ops += static_cast<double>(sched->Stats(owner).completed);
      }
      for (int owner : kSecondaryIoOwners) {
        io_secondary_bytes += static_cast<double>(sched->Stats(owner).bytes_completed);
      }
    }
    disk_ops += static_cast<double>(node.ssd_volume().CompletedOps() +
                                    node.hdd_volume().CompletedOps());
  });
  Fabric& fabric = cluster.fabric();
  double flows_sent = 0, flows_primary = 0, flows_delivered = 0;
  double chunks = 0, max_queued = 0, uplink_busy_ns = 0;
  const auto add_link = [&](const Link& link) {
    chunks += static_cast<double>(link.stats().chunks);
    max_queued = std::max(max_queued, static_cast<double>(link.stats().max_queued_bytes));
  };
  for (int e = 0; e < fabric.num_endpoints(); ++e) {
    const Fabric::EndpointStats& es = fabric.endpoint_stats(e);
    for (int c = 0; c < kNumNetClasses; ++c) {
      flows_sent += static_cast<double>(es.flows_sent[c]);
      flows_delivered += static_cast<double>(es.flows_delivered[c]);
    }
    flows_primary += static_cast<double>(es.flows_sent[static_cast<int>(NetClass::kPrimary)]);
    add_link(fabric.netdev(e).tx());
    add_link(fabric.netdev(e).rx());
  }
  for (int r = 0; r < fabric.num_racks(); ++r) {
    add_link(fabric.rack_uplink(r));
    add_link(fabric.rack_downlink(r));
    uplink_busy_ns += static_cast<double>(fabric.rack_uplink(r).stats().busy_ns);
  }
  const ParallelSimulation::Stats& ps = psim.stats();
  return {
      {"sim_time_s", ToSeconds(psim.sim(0).Now())},
      {"client.submitted", static_cast<double>(client.submitted)},
      {"client.completed", static_cast<double>(client.completed)},
      {"cluster.submitted", static_cast<double>(cluster.queries_submitted())},
      {"sim.events", events},
      {"sim.scheduled", scheduled},
      {"sim.cancelled", cancelled},
      {"sim.cascades", cascades},
      {"sim.overflow_pulls", overflow_pulls},
      {"sim.callback_heap_allocs", callback_heap_allocs},
      {"sim.slab_allocs", slab_allocs},
      {"parallel.windows", static_cast<double>(ps.windows_run)},
      {"parallel.msgs", static_cast<double>(ps.messages_posted)},
      {"parallel.merges", static_cast<double>(ps.merge_batches)},
      {"machine.dispatches", dispatches},
      {"machine.preemptions", preemptions},
      {"machine.threads_spawned", threads_spawned},
      {"machine.busy_primary_ns", busy_primary_ns},
      {"machine.busy_secondary_ns", busy_secondary_ns},
      {"perfiso.polls", polls},
      {"perfiso.affinity_updates", affinity_updates},
      {"perfiso.rate_updates", rate_updates},
      {"perfiso.io_polls", io_polls},
      {"perfiso.io_adjustments", io_adjustments},
      {"indexserve.submitted", leaf_submitted},
      {"indexserve.hedges", hedges},
      {"indexserve.retries", retries},
      {"indexserve.drops", drops},
      {"io.primary_ops", io_primary_ops},
      {"io.secondary_bytes", io_secondary_bytes},
      {"disk.ops", disk_ops},
      {"net.flows_sent", flows_sent},
      {"net.flows_primary", flows_primary},
      {"net.flows_delivered", flows_delivered},
      {"net.chunks", chunks},
      {"net.max_queued_bytes", max_queued},
      {"net.uplink_busy_ns", uplink_busy_ns},
  };
}

// One row per slice boundary: host seconds since process start, then every
// cumulative counter.
bool WriteSlicesCsv(const std::string& path,
                    const std::vector<std::pair<double, Counters>>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0) {
      std::fprintf(f, "host_s");
      for (const auto& [key, value] : rows[i].second) {
        std::fprintf(f, ",%s", key);
      }
      std::fprintf(f, "\n");
    }
    std::fprintf(f, "%.6f", rows[i].first);
    for (const auto& [key, value] : rows[i].second) {
      std::fprintf(f, ",%.17g", value);
    }
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

double CounterValue(const Counters& counters, const char* name) {
  for (const auto& [key, value] : counters) {
    if (std::strcmp(key, name) == 0) {
      return value;
    }
  }
  std::fprintf(stderr, "simbench: unknown counter %s\n", name);
  std::abort();
}

// The recorders behind the window-only percentiles. They are never reset, so
// a recorder's window samples are those after the count marked when the
// measurement window starts; marks are kept in ForEachWindowRecorder's
// visiting order.
enum RecorderKind { kSchedDelay, kIoWait, kDiskLatency, kNumRecorderKinds };

template <typename Fn>
void ForEachWindowRecorder(Cluster& cluster, Fn&& fn) {
  cluster.ForEachIndexNode([&](IndexNodeRig& node) {
    fn(kSchedDelay, node.machine().metrics().primary_sched_delay_us);
    for (const IoScheduler* sched : {&node.ssd_scheduler(), &node.hdd_scheduler()}) {
      for (int owner : kPrimaryIoOwners) {
        fn(kIoWait, sched->Stats(owner).total_latency_us);
      }
    }
    for (const StripedVolume* volume : {&node.ssd_volume(), &node.hdd_volume()}) {
      for (int owner : kPrimaryIoOwners) {
        fn(kDiskLatency, volume->OwnerStats(owner).latency_us);
      }
      for (int owner : kSecondaryIoOwners) {
        fn(kDiskLatency, volume->OwnerStats(owner).latency_us);
      }
    }
  });
}

std::vector<size_t> MarkRecorders(Cluster& cluster) {
  std::vector<size_t> marks;
  ForEachWindowRecorder(cluster,
                        [&](RecorderKind, const LatencyRecorder& r) { marks.push_back(r.Count()); });
  return marks;
}

// Nearest-rank p99 (LatencyRecorder::Percentile's method); 0 when empty.
double NearestRankP99(std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(0.99 * static_cast<double>(samples.size()))));
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// p99 per RecorderKind over every sample recorded after `marks`, pooled
// across the cluster.
std::array<double, kNumRecorderKinds> WindowP99s(Cluster& cluster,
                                                 const std::vector<size_t>& marks) {
  std::vector<double> pools[kNumRecorderKinds];
  size_t next_mark = 0;
  ForEachWindowRecorder(cluster, [&](RecorderKind kind, const LatencyRecorder& r) {
    const auto from = static_cast<ptrdiff_t>(marks[next_mark++]);
    pools[kind].insert(pools[kind].end(), r.samples().begin() + from, r.samples().end());
  });
  std::array<double, kNumRecorderKinds> p99s{};
  for (int kind = 0; kind < kNumRecorderKinds; ++kind) {
    p99s[kind] = NearestRankP99(pools[kind]);
  }
  return p99s;
}

// --- Output --------------------------------------------------------------------

// `value` as a JSON string literal.
std::string Quote(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  void Number(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Int(const char* key, int64_t value) { Raw(key, std::to_string(value)); }
  void Bool(const char* key, bool value) { Raw(key, value ? "true" : "false"); }
  void Hex(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", value);
    Raw(key, buf);
  }
  void String(const char* key, const std::string& value) { Raw(key, Quote(value)); }
  void Raw(const char* key, const std::string& json) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + std::string(key) + "\": " + json;
  }
  std::string Close() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: simbench_runner --workload fleet-day|fleet-day-pdes|prod-colo "
               "--seed N [--traced PREFIX | --setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const double cpu_at_start = ProcessCpuSeconds();

  std::string workload_name;
  uint64_t seed = 0;
  bool seed_given = false;
  std::string trace_prefix;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    if (arg == "--workload") {
      workload_name = argv[++i];
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') {
        return Usage();
      }
      seed_given = true;
    } else if (arg == "--traced") {
      trace_prefix = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::optional<Workload> found = FindWorkload(workload_name, seed);
  if (!found.has_value() || !seed_given) {
    return Usage();
  }
  const Workload& workload = *found;
  const ScenarioSpec& spec = workload.spec;
  if (Status status = spec.Validate(); !status.ok()) {
    std::fprintf(stderr, "simbench: invalid scenario: %s\n", status.ToString().c_str());
    return 1;
  }
  const bool traced = !trace_prefix.empty();
  SpanLog spans(process_start);
  const int root_span = spans.Begin("run", -1);
  std::vector<std::string> problems;

  // --- Setup: engine, cluster, tenants + PerfIso, trace, client. ---------------
  ClusterOptions options = bench::MakeClusterOptions(spec);
  options.seed = workload.cluster_seed;
  const bool partitioned = workload.partitions >= 2;
  ParallelSimulation::Options popt;
  popt.partitions = partitioned ? workload.partitions : 1;
  popt.window = partitioned ? options.fabric.base_latency : 0;
  popt.threads = partitioned ? kPdesThreads : 1;

  int span = spans.Begin("setup.build", root_span);
  auto build_start = Clock::now();
  ParallelSimulation psim(popt);
  Simulator& sim = psim.sim(0);
  auto cluster = partitioned ? std::make_unique<Cluster>(&psim, options)
                             : std::make_unique<Cluster>(&sim, options);
  const double build_s = SecondsSince(build_start);
  spans.End(span);

  span = spans.Begin("setup.tenants", root_span);
  auto tenants_start = Clock::now();
  bench::ApplyScenarioTenants(cluster.get(), spec);
  const double tenants_s = SecondsSince(tenants_start);
  spans.End(span);

  span = spans.Begin("setup.trace_gen", root_span);
  auto trace_start = Clock::now();
  Rng trace_rng(spec.trace_seed);
  std::vector<QueryWork> trace = GenerateTrace(TraceSpec{}, spec.trace_count, &trace_rng);
  const double trace_gen_s = SecondsSince(trace_start);
  spans.End(span);

  // The traced client wraps each SubmitQuery and each completion in a span;
  // `current_slice` is the span they hang under.
  ClientCounts client;
  int current_slice = root_span;
  span = spans.Begin("setup.client_arm", root_span);
  OpenLoopClient::SubmitFn submit;
  if (traced) {
    submit = [&](const QueryWork& work, SimTime) {
      const int parent = current_slice;
      const int s = spans.Begin("cluster.submit", parent);
      cluster->SubmitQuery(work, [&spans, &client, parent](const QueryResult&) {
        const int c = spans.Begin("cluster.complete", parent);
        ++client.completed;
        spans.End(c);
      });
      spans.End(s);
      client.submit_ns += spans.DurationNs(s);
      ++client.submitted;
    };
  } else {
    submit = [&cluster](const QueryWork& work, SimTime) { cluster->SubmitQuery(work); };
  }
  OpenLoopClient open_client(&sim, std::move(trace), spec.load, Rng(spec.client_seed),
                             std::move(submit));
  open_client.Run(0, spec.warmup + spec.measure);
  spans.End(span);
  const double setup_s = SecondsSince(process_start);
  if (setup_only) {
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"setup_s\": %.17g}\n",
                workload_name.c_str(), seed, setup_s);
    return 0;
  }

  // --- Simulation phase. -----------------------------------------------------------
  const SimTime end_time = spec.warmup + spec.measure;
  const double sim_cpu_start = ProcessCpuSeconds();
  const Clock::time_point sim_start = Clock::now();
  // Slice-boundary counter snapshots, kept in memory until the run ends.
  std::vector<std::pair<double, Counters>> slice_rows;
  // Advances the engine to `until`. The traced run steps in slices whose ends
  // sit on the PDES window grid (the last tick of a window), so slicing never
  // splits a window the untraced run would run whole.
  const auto advance = [&](SimTime until) {
    if (!traced) {
      psim.RunUntil(until);
      return;
    }
    const SimDuration window = psim.window();
    SimTime now = sim.Now();
    while (now < until) {
      SimTime next = std::min(until, now + kSliceLength);
      if (window > 0 && next < until) {
        next = std::max(next - next % window - 1, now + 1);
      }
      current_slice = spans.Begin("sim.slice", root_span);
      psim.RunUntil(next);
      spans.End(current_slice);
      current_slice = root_span;
      now = next;
      slice_rows.emplace_back(SecondsSince(process_start),
                              SnapshotCounters(*cluster, psim, client));
    }
  };

  advance(spec.warmup);
  const int64_t completed_in_warmup = cluster->queries_completed();
  cluster->ResetStats();
  const std::vector<IndexNodeRig::UtilizationSnapshot> snaps = cluster->SnapshotAll();
  Counters at_warmup;
  std::vector<size_t> marks;
  if (traced) {
    at_warmup = SnapshotCounters(*cluster, psim, client);
    marks = MarkRecorders(*cluster);
  }
  const Clock::time_point measure_start = Clock::now();
  advance(end_time);
  const double measure_host_s = SecondsSince(measure_start);
  const double sim_host_s = SecondsSince(sim_start);
  const double sim_cpu_s = ProcessCpuSeconds() - sim_cpu_start;

  // --- Readout: merged recorders, digests, utilization. ---------------------------
  span = spans.Begin("cluster.readout", root_span);
  const auto readout_start = Clock::now();
  const LatencyRecorder& tla = cluster->TlaLatency();
  const LatencyRecorder leaf = cluster->MergedLeafLatency();
  const LatencyRecorder mla = cluster->MlaLatency();
  const LatencyRecorder flow = cluster->fabric().FlowLatencyMs(NetClass::kPrimary);
  const uint64_t leaf_digest = leaf.Digest();
  const uint64_t mla_digest = mla.Digest();
  const uint64_t tla_digest = tla.Digest();
  const uint64_t flow_digest = flow.Digest();
  const size_t tla_samples = tla.Count();
  const double tla_p50_ms = tla.P50();
  const double tla_p99_ms = tla.P99();
  const int64_t submitted = cluster->queries_submitted();
  const int64_t completed = cluster->queries_completed();
  const int64_t failed = cluster->queries_failed();
  const int64_t degraded = cluster->queries_degraded();
  const int64_t leaf_drops = cluster->leaf_drops();
  const double secondary_util = cluster->MeanUtilizationSince(snaps, TenantClass::kSecondary);
  const double cpu_util = cluster->MeanBusyFractionSince(snaps);
  const uint64_t events = psim.TotalEventsExecuted();
  const double readout_s = SecondsSince(readout_start);
  spans.End(span);

  // --- Correctness: invariants and engine mode. -----------------------------------
  span = spans.Begin("fault.check", root_span);
  const auto check_start = Clock::now();
  InvariantReport invariants;
  InvariantChecker::CheckCluster(*cluster, /*expect_drained=*/false, &invariants);
  const double check_s = SecondsSince(check_start);
  spans.End(span);
  for (const std::string& violation : invariants.violations) {
    problems.push_back("invariant: " + violation);
  }
  const int partitions_used = psim.num_partitions();
  const int threads_used = psim.num_threads();
  const bool fell_back_sequential = partitioned && psim.stats().windows_run == 0;
  if (partitioned && (fell_back_sequential || partitions_used < kPdesPartitions)) {
    problems.push_back("partitioned engine not used as configured");
  }
  if (completed <= 0 || static_cast<int64_t>(tla_samples) != completed) {
    problems.push_back("TLA sample count does not match completed queries");
  }

  // --- Per-layer readout (traced run only). ----------------------------------------
  JsonObject layers;
  if (traced) {
    const Counters at_end = SnapshotCounters(*cluster, psim, client);
    const auto delta = [&](const char* name) {
      return CounterValue(at_end, name) - CounterValue(at_warmup, name);
    };
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double queries = delta("cluster.submitted");
    const double window_events = delta("sim.events");
    const double measure_s = ToSeconds(spec.measure);
    const auto p99s = WindowP99s(*cluster, marks);
    int max_burst = 0;
    cluster->ForEachIndexNode([&](IndexNodeRig& node) {
      max_burst = std::max(max_burst, node.machine().metrics().max_ready_burst_5us);
    });
    layers.Number("sim.events", window_events);
    layers.Number("sim.events_per_query", ratio(window_events, queries));
    layers.Number("sim.ns_per_event", ratio(measure_host_s * 1e9, window_events));
    layers.Number("sim.cancel_frac", ratio(delta("sim.cancelled"), delta("sim.scheduled")));
    layers.Number("sim.cascades_per_event", ratio(delta("sim.cascades"), window_events));
    layers.Number("sim.overflow_pulls", delta("sim.overflow_pulls"));
    layers.Number("sim.callback_heap_allocs", CounterValue(at_end, "sim.callback_heap_allocs"));
    layers.Number("sim.slab_allocs", CounterValue(at_end, "sim.slab_allocs"));
    const double windows = delta("parallel.windows");
    layers.Number("parallel.windows", windows);
    layers.Number("parallel.events_per_window", ratio(window_events, windows));
    layers.Number("parallel.msgs_per_window", ratio(delta("parallel.msgs"), windows));
    layers.Number("parallel.merge_frac", ratio(delta("parallel.merges"), windows));
    layers.Number("parallel.cpu_busy_frac", ratio(sim_cpu_s, threads_used * sim_host_s));
    layers.Number("machine.dispatches_per_query", ratio(delta("machine.dispatches"), queries));
    layers.Number("machine.preemptions_per_query", ratio(delta("machine.preemptions"), queries));
    layers.Number("machine.threads_spawned_per_query",
                  ratio(delta("machine.threads_spawned"), queries));
    layers.Number("machine.sched_delay_p99_us", p99s[kSchedDelay]);
    layers.Number("machine.max_ready_burst_5us", max_burst);
    layers.Number("perfiso.polls_per_query", ratio(delta("perfiso.polls"), queries));
    layers.Number("perfiso.update_frac",
                  ratio(delta("perfiso.affinity_updates"), delta("perfiso.polls")));
    layers.Number("perfiso.io_polls", delta("perfiso.io_polls"));
    layers.Number("perfiso.rate_updates", delta("perfiso.rate_updates"));
    layers.Number("perfiso.io_adjustments", delta("perfiso.io_adjustments"));
    const double leaf_queries = delta("indexserve.submitted");
    layers.Number("indexserve.leaf_p99_ms", leaf.P99());
    layers.Number("indexserve.hedge_frac", ratio(delta("indexserve.hedges"), leaf_queries));
    layers.Number("indexserve.retry_frac", ratio(delta("indexserve.retries"), leaf_queries));
    layers.Number("indexserve.drop_frac", ratio(delta("indexserve.drops"), leaf_queries));
    layers.Number("io.ops_per_query", ratio(delta("io.primary_ops"), queries));
    layers.Number("io.wait_p99_us", p99s[kIoWait]);
    layers.Number("io.secondary_bytes_per_s", ratio(delta("io.secondary_bytes"), measure_s));
    layers.Number("disk.ops", delta("disk.ops"));
    layers.Number("disk.latency_p99_us", p99s[kDiskLatency]);
    layers.Number("net.flows_per_query", ratio(delta("net.flows_primary"), queries));
    layers.Number("net.chunks_per_flow", ratio(delta("net.chunks"), delta("net.flows_delivered")));
    layers.Number("net.flow_p99_ms", flow.P99());
    layers.Number("net.uplink_busy_frac",
                  ratio(delta("net.uplink_busy_ns"),
                        static_cast<double>(cluster->fabric().num_racks()) * measure_s * 1e9));
    layers.Number("net.max_queued_bytes", CounterValue(at_end, "net.max_queued_bytes"));
    layers.Number("cluster.mla_p99_ms", mla.P99());
    layers.Number("cluster.submit_ns",
                  ratio(static_cast<double>(client.submit_ns), static_cast<double>(client.submitted)));
    layers.Number("cluster.build_s", build_s);
    layers.Number("cluster.readout_s", readout_s);
    layers.Number("workload.trace_gen_s", trace_gen_s);
    layers.Number("workload.tenants_start_s", tenants_s);
    layers.Number("fault.check_s", check_s);
  }

  // Teardown belongs to the workload's host time too.
  cluster.reset();
  spans.End(root_span);
  if (traced && !spans.WriteChromeTrace(trace_prefix + ".trace.json")) {
    problems.push_back("cannot write " + trace_prefix + ".trace.json");
  }
  if (traced && !WriteSlicesCsv(trace_prefix + ".slices.csv", slice_rows)) {
    problems.push_back("cannot write " + trace_prefix + ".slices.csv");
  }
  const double wall_s = SecondsSince(process_start);
  const double cpu_s = ProcessCpuSeconds() - cpu_at_start;

  JsonObject out;
  out.String("workload", workload_name);
  out.Int("seed", static_cast<int64_t>(seed));
  out.Bool("traced", traced);
  out.Bool("ok", problems.empty());
  std::string problem_list = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    problem_list += (i == 0 ? "" : ", ") + Quote(problems[i]);
  }
  out.Raw("problems", problem_list + "]");
  out.Number("setup_s", setup_s);
  out.Number("sim_host_s", sim_host_s);
  out.Number("wall_s", wall_s);
  out.Number("cpu_s", cpu_s);
  out.Number("peak_rss_mb", PeakRssMb());
  out.Int("queries_completed_total", completed_in_warmup + completed);
  out.Int("queries_submitted", submitted);
  out.Int("queries_completed", completed);
  out.Int("queries_failed", failed);
  out.Int("queries_degraded", degraded);
  out.Int("leaf_drops", leaf_drops);
  out.Int("tla_samples", static_cast<int64_t>(tla_samples));
  out.Number("tla_p50_ms", tla_p50_ms);
  out.Number("tla_p99_ms", tla_p99_ms);
  out.Number("secondary_util", secondary_util);
  out.Number("cpu_util", cpu_util);
  out.Int("events", static_cast<int64_t>(events));
  out.Hex("leaf_digest", leaf_digest);
  out.Hex("mla_digest", mla_digest);
  out.Hex("tla_digest", tla_digest);
  out.Hex("flow_digest", flow_digest);
  out.Int("partitions_used", partitions_used);
  out.Int("threads_used", threads_used);
  out.Bool("fell_back_sequential", fell_back_sequential);
  if (traced) {
    out.Raw("layers", layers.Close());
  }
  std::printf("%s\n", out.Close().c_str());
  return 0;
}
