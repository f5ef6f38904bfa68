#include "src/obs/obs.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/util/stats.h"

namespace perfiso {

const char* TraceSamplingName(TraceSampling sampling) {
  switch (sampling) {
    case TraceSampling::kAll:
      return "all";
    case TraceSampling::kSlowestK:
      return "slowest_k";
  }
  return "?";
}

StatusOr<TraceSampling> ParseTraceSampling(const std::string& name) {
  if (name == "all") {
    return TraceSampling::kAll;
  }
  if (name == "slowest_k") {
    return TraceSampling::kSlowestK;
  }
  return InvalidArgumentError("unknown obs.sampling: " + name);
}

Status ObsSpec::Validate() const {
  if (!enabled) {
    return Status::Ok();
  }
  if (metrics_period <= 0) {
    return InvalidArgumentError("obs.metrics_period_ns must be positive");
  }
  if (sampling == TraceSampling::kSlowestK && slowest_k <= 0) {
    return InvalidArgumentError("obs.slowest_k must be positive");
  }
  if (trace_max_events < 0) {
    return InvalidArgumentError("obs.trace_max_events must be >= 0");
  }
  return Status::Ok();
}

void ObsSpec::AppendToConfigMap(ConfigMap* map) const {
  if (!enabled) {
    return;
  }
  map->SetBool("obs.enabled", true);
  map->SetInt("obs.metrics_period_ns", metrics_period);
  map->SetString("obs.sampling", TraceSamplingName(sampling));
  if (sampling == TraceSampling::kSlowestK) {
    map->SetInt("obs.slowest_k", slowest_k);
  }
  map->SetInt("obs.trace_max_events", trace_max_events);
}

StatusOr<ObsSpec> ObsSpec::FromConfigMap(const ConfigMap& map) {
  ObsSpec spec;
  auto enabled = map.GetBool("obs.enabled", spec.enabled);
  PERFISO_RETURN_IF_ERROR(enabled.status());
  spec.enabled = *enabled;

  auto period = map.GetInt("obs.metrics_period_ns", spec.metrics_period);
  PERFISO_RETURN_IF_ERROR(period.status());
  spec.metrics_period = *period;

  auto sampling_name = map.GetString("obs.sampling", TraceSamplingName(spec.sampling));
  PERFISO_RETURN_IF_ERROR(sampling_name.status());
  auto sampling = ParseTraceSampling(*sampling_name);
  PERFISO_RETURN_IF_ERROR(sampling.status());
  spec.sampling = *sampling;

  auto slowest_k = map.GetInt32("obs.slowest_k", spec.slowest_k);
  PERFISO_RETURN_IF_ERROR(slowest_k.status());
  spec.slowest_k = *slowest_k;

  auto max_events = map.GetInt("obs.trace_max_events", spec.trace_max_events);
  PERFISO_RETURN_IF_ERROR(max_events.status());
  spec.trace_max_events = *max_events;

  PERFISO_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Tracer::Options ObsSpec::TracerOptions() const {
  Tracer::Options options;
  options.sampling = sampling;
  options.slowest_k = slowest_k;
  options.max_events = trace_max_events;
  return options;
}

std::string FormatP99AttributionTable(const Tracer& tracer) {
  const std::vector<TraceSummary>& summaries = tracer.summaries();
  LatencyRecorder completed;
  for (const TraceSummary& summary : summaries) {
    if (!summary.dropped) {
      completed.Add(summary.latency_ms);
    }
  }
  if (completed.Count() == 0) {
    return "";
  }
  const double p99 = completed.P99();

  TailAttribution total;
  double latency_sum = 0;
  size_t cohort = 0;
  for (const TraceSummary& summary : summaries) {
    if (summary.dropped || summary.latency_ms < p99) {
      continue;
    }
    total.Accumulate(summary.attribution);
    latency_sum += summary.latency_ms;
    ++cohort;
  }
  if (cohort == 0) {
    return "";
  }

  const double denom = std::max(latency_sum, 1e-12);
  char line[128];
  std::ostringstream out;
  std::snprintf(line, sizeof(line),
                "P99 cohort (%zu/%zu queries, >= %.2f ms): mean latency %.2f ms\n",
                cohort, completed.Count(), p99,
                latency_sum / static_cast<double>(cohort));
  out << line;
  const auto row = [&](const char* label, double ms) {
    std::snprintf(line, sizeof(line), "  %-14s %9.2f ms  %5.1f%%\n", label,
                  ms / static_cast<double>(cohort), 100.0 * ms / denom);
    out << line;
  };
  row("cpu_wait", total.cpu_wait_ms);
  row("disk_queue", total.disk_queue_ms);
  row("net_transit", total.net_transit_ms);
  row("serialization", total.serialization_ms);
  row("service", total.service_ms);
  row("other", total.other_ms);
  return out.str();
}

}  // namespace perfiso
