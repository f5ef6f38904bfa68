#include "src/obs/trace.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace perfiso {

const char* SpanCategoryName(SpanCategory category) {
  switch (category) {
    case SpanCategory::kCpuWait:
      return "cpu_wait";
    case SpanCategory::kDiskQueue:
      return "disk_queue";
    case SpanCategory::kNetTransit:
      return "net_transit";
    case SpanCategory::kSerialization:
      return "serialization";
    case SpanCategory::kService:
      return "service";
  }
  return "?";
}

double& TailAttribution::ByCategory(SpanCategory category) {
  switch (category) {
    case SpanCategory::kCpuWait:
      return cpu_wait_ms;
    case SpanCategory::kDiskQueue:
      return disk_queue_ms;
    case SpanCategory::kNetTransit:
      return net_transit_ms;
    case SpanCategory::kSerialization:
      return serialization_ms;
    case SpanCategory::kService:
      return service_ms;
  }
  return other_ms;
}

void TailAttribution::Accumulate(const TailAttribution& other) {
  cpu_wait_ms += other.cpu_wait_ms;
  disk_queue_ms += other.disk_queue_ms;
  net_transit_ms += other.net_transit_ms;
  serialization_ms += other.serialization_ms;
  service_ms += other.service_ms;
  other_ms += other.other_ms;
}

Tracer::Tracer(const Options& options) : options_(options) {}

int Tracer::RegisterProcess(const std::string& name) {
  process_names_.push_back(name);
  return static_cast<int>(process_names_.size());  // pids are 1-based
}

int Tracer::RegisterTrack(int process, const std::string& name) {
  assert(process >= 1 && process <= static_cast<int>(process_names_.size()));
  tracks_.push_back(TrackInfo{process, name});
  return static_cast<int>(tracks_.size());  // tids are 1-based
}

uint32_t Tracer::InternName(const char* name) {
  auto [it, inserted] = name_ids_.try_emplace(name, 0);
  if (inserted) {
    names_.emplace_back(name);
    it->second = static_cast<uint32_t>(names_.size() - 1);
  }
  return it->second;
}

uint64_t Tracer::BeginTrace(const char* scope, SimTime at) {
  const uint64_t ctx = next_ctx_++;
  ActiveTrace& trace = active_[ctx];
  trace.scope_id = InternName(scope);
  trace.begin = at;
  ++stats_.begun;
  return ctx;
}

void Tracer::Span(uint64_t ctx, const char* name, SpanCategory category,
                  int32_t track, SimTime start, SimTime end) {
  auto it = active_.find(ctx);
  if (ctx == 0 || it == active_.end()) {
    ++stats_.orphan_spans;
    return;
  }
  SpanRecord span;
  span.name_id = InternName(name);
  span.category = category;
  span.track = track;
  span.start = start;
  span.end = end;
  it->second.spans.push_back(span);
  ++stats_.spans;
}

void Tracer::Instant(const char* name, int32_t track, SimTime at) {
  if (static_cast<int64_t>(instants_.size()) >= options_.max_events) {
    ++stats_.dropped_instants;
    return;
  }
  InstantRecord instant;
  instant.name_id = InternName(name);
  instant.track = track;
  instant.at = at;
  instants_.push_back(instant);
}

void Tracer::EndTrace(uint64_t ctx, SimTime at, bool dropped) {
  auto it = active_.find(ctx);
  if (ctx == 0 || it == active_.end()) {
    ++stats_.orphan_spans;
    return;
  }
  ActiveTrace& active = it->second;
  ++stats_.ended;

  RetainedTrace trace;
  trace.ctx = ctx;
  trace.scope_id = active.scope_id;
  trace.begin = active.begin;
  trace.end = at;
  trace.latency_ms = ToMillis(at - active.begin);
  trace.dropped = dropped;
  trace.attribution = ComputeAttribution(active.begin, at, active.spans);
  trace.spans = std::move(active.spans);
  active_.erase(it);

  TraceSummary summary;
  summary.ctx = trace.ctx;
  summary.scope_id = trace.scope_id;
  summary.begin = trace.begin;
  summary.latency_ms = trace.latency_ms;
  summary.dropped = trace.dropped;
  summary.attribution = trace.attribution;
  summaries_.push_back(summary);

  // Sampling gates only span retention; the summary above is always kept.
  Retain(std::move(trace));
}

void Tracer::Retain(RetainedTrace trace) {
  const auto span_count = static_cast<int64_t>(trace.spans.size());
  if (options_.sampling == TraceSampling::kSlowestK) {
    if (retained_.size() >= static_cast<size_t>(std::max(options_.slowest_k, 0))) {
      auto slowest_min = retained_.begin();
      if (options_.slowest_k <= 0 || slowest_min->first >= trace.latency_ms) {
        ++stats_.dropped_traces;
        return;
      }
      retained_events_ -= static_cast<int64_t>(slowest_min->second.spans.size());
      --stats_.retained;
      ++stats_.dropped_traces;  // evicted: every ended trace is retained or dropped
      retained_.erase(slowest_min);
    }
  } else if (retained_events_ + span_count > options_.max_events) {
    ++stats_.dropped_traces;
    return;
  }
  retained_events_ += span_count;
  ++stats_.retained;
  const double key = trace.latency_ms;
  retained_.emplace(key, std::move(trace));
}

std::vector<const RetainedTrace*> Tracer::Retained() const {
  std::vector<const RetainedTrace*> out;
  out.reserve(retained_.size());
  for (const auto& [latency, trace] : retained_) {
    out.push_back(&trace);
  }
  return out;
}

TailAttribution Tracer::ComputeAttribution(SimTime begin, SimTime end,
                                           const std::vector<SpanRecord>& spans) {
  TailAttribution out;
  if (end <= begin) {
    return out;
  }
  // Priority interval sweep: +1/-1 edges per category, walk elementary
  // segments, attribute each to the highest-priority active category (the
  // enum is declared in ascending priority). All arithmetic is in integer
  // nanoseconds so the six buckets sum exactly to the latency.
  struct Edge {
    SimTime t;
    int category;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(spans.size() * 2);
  for (const SpanRecord& span : spans) {
    const SimTime lo = std::max(span.start, begin);
    const SimTime hi = std::min(span.end, end);
    if (hi <= lo) {
      continue;
    }
    edges.push_back(Edge{lo, static_cast<int>(span.category), +1});
    edges.push_back(Edge{hi, static_cast<int>(span.category), -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  int64_t covered_ns[kNumSpanCategories] = {0};
  int active[kNumSpanCategories] = {0};
  SimTime prev = begin;
  size_t i = 0;
  while (i < edges.size()) {
    const SimTime t = edges[i].t;
    if (t > prev) {
      for (int category = kNumSpanCategories - 1; category >= 0; --category) {
        if (active[category] > 0) {
          covered_ns[category] += t - prev;
          break;
        }
      }
      prev = t;
    }
    while (i < edges.size() && edges[i].t == t) {
      active[edges[i].category] += edges[i].delta;
      ++i;
    }
  }
  // The trailing segment (and any span-free lifetime) is uncovered.
  int64_t covered_total = 0;
  for (int category = 0; category < kNumSpanCategories; ++category) {
    out.ByCategory(static_cast<SpanCategory>(category)) = ToMillis(covered_ns[category]);
    covered_total += covered_ns[category];
  }
  out.other_ms = ToMillis((end - begin) - covered_total);
  return out;
}

}  // namespace perfiso
