#include "src/fault/fault_plan.h"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "src/util/rng.h"

namespace perfiso {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "crash";
    case FaultKind::kDiskDegrade:
      return "disk";
    case FaultKind::kLinkDegrade:
      return "link";
    case FaultKind::kCpuStraggler:
      return "straggler";
  }
  return "?";
}

StatusOr<FaultKind> ParseFaultKind(const std::string& name) {
  if (name == "crash") {
    return FaultKind::kNodeCrash;
  }
  if (name == "disk") {
    return FaultKind::kDiskDegrade;
  }
  if (name == "link") {
    return FaultKind::kLinkDegrade;
  }
  if (name == "straggler") {
    return FaultKind::kCpuStraggler;
  }
  return InvalidArgumentError("unknown fault kind: " + name);
}

namespace {

// One event per list entry: kind:node:at_sec:duration_sec:severity.
std::string EncodeEvents(const std::vector<FaultEvent>& events) {
  std::string out;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += FaultKindName(events[i].kind);
    out += ':';
    out += std::to_string(events[i].node);
    out += ':';
    out += FormatDouble(events[i].at_sec);
    out += ':';
    out += FormatDouble(events[i].duration_sec);
    out += ':';
    out += FormatDouble(events[i].severity);
  }
  return out;
}

StatusOr<double> ParseDoubleField(const std::string& field, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size()) {
    return InvalidArgumentError(std::string("malformed fault event ") + what + ": " + field);
  }
  return value;
}

// Node ids are ints: anything else, including a value outside int's range,
// is an error rather than a truncation.
StatusOr<int> ParseNodeField(const std::string& field) {
  int value = 0;
  const auto parsed = std::from_chars(field.data(), field.data() + field.size(), value);
  if (field.empty() || parsed.ec != std::errc() || parsed.ptr != field.data() + field.size()) {
    return InvalidArgumentError("malformed fault event node: " + field);
  }
  return value;
}

StatusOr<std::vector<FaultEvent>> DecodeEvents(const std::string& text) {
  if (!text.empty() && text.back() == ',') {
    return InvalidArgumentError("fault.events has a trailing comma");
  }
  std::vector<FaultEvent> events;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::istringstream fields_in(item);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(fields_in, field, ':')) {
      fields.push_back(field);
    }
    if (fields.size() != 5) {
      return InvalidArgumentError("fault event needs kind:node:at:duration:severity, got: " +
                                  item);
    }
    FaultEvent event;
    auto kind = ParseFaultKind(fields[0]);
    PERFISO_RETURN_IF_ERROR(kind.status());
    event.kind = *kind;
    auto node = ParseNodeField(fields[1]);
    PERFISO_RETURN_IF_ERROR(node.status());
    event.node = *node;
    auto at = ParseDoubleField(fields[2], "time");
    PERFISO_RETURN_IF_ERROR(at.status());
    event.at_sec = *at;
    auto duration = ParseDoubleField(fields[3], "duration");
    PERFISO_RETURN_IF_ERROR(duration.status());
    event.duration_sec = *duration;
    auto severity = ParseDoubleField(fields[4], "severity");
    PERFISO_RETURN_IF_ERROR(severity.status());
    event.severity = *severity;
    events.push_back(event);
  }
  return events;
}

}  // namespace

Status FaultPlan::Validate() const { return Validate(/*num_nodes=*/0); }

Status FaultPlan::Validate(int num_nodes) const {
  if (!enabled) {
    return OkStatus();
  }
  for (const FaultEvent& event : events) {
    if (event.node < 0) {
      return InvalidArgumentError("fault event node must be >= 0");
    }
    if (num_nodes > 0 && event.node >= num_nodes) {
      return InvalidArgumentError("fault event node " + std::to_string(event.node) +
                                  " outside topology of " + std::to_string(num_nodes) +
                                  " index nodes");
    }
    if (event.at_sec < 0) {
      return InvalidArgumentError("fault event time must be >= 0");
    }
    if (event.duration_sec <= 0) {
      return InvalidArgumentError("fault event duration must be positive");
    }
    switch (event.kind) {
      case FaultKind::kNodeCrash:
        break;
      case FaultKind::kDiskDegrade:
        if (event.severity < 1) {
          return InvalidArgumentError("disk-degrade severity is a latency multiplier >= 1");
        }
        break;
      case FaultKind::kLinkDegrade:
        if (event.severity <= 0 || event.severity > 1) {
          return InvalidArgumentError("link-degrade severity is a rate fraction in (0, 1]");
        }
        break;
      case FaultKind::kCpuStraggler:
        if (event.severity < 1) {
          return InvalidArgumentError("straggler severity is a thread count >= 1");
        }
        break;
    }
  }
  return OkStatus();
}

void FaultPlan::AppendToConfigMap(ConfigMap* map) const {
  if (!enabled) {
    return;  // contractual inertness: a disabled plan leaves no trace
  }
  map->SetBool("fault.enabled", true);
  map->SetInt("fault.seed", static_cast<int64_t>(seed));
  if (!events.empty()) {
    map->SetString("fault.events", EncodeEvents(events));
  }
}

StatusOr<FaultPlan> FaultPlan::FromConfigMap(const ConfigMap& map) {
  FaultPlan plan;
  auto enabled = map.GetBool("fault.enabled", plan.enabled);
  PERFISO_RETURN_IF_ERROR(enabled.status());
  plan.enabled = *enabled;

  auto seed = map.GetInt("fault.seed", static_cast<int64_t>(plan.seed));
  PERFISO_RETURN_IF_ERROR(seed.status());
  plan.seed = static_cast<uint64_t>(*seed);

  auto events = map.GetString("fault.events", "");
  PERFISO_RETURN_IF_ERROR(events.status());
  if (!events->empty()) {
    auto decoded = DecodeEvents(*events);
    PERFISO_RETURN_IF_ERROR(decoded.status());
    plan.events = *decoded;
  } else if (map.Has("fault.events")) {
    return InvalidArgumentError("fault.events must not be empty");
  }

  PERFISO_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

FaultPlan FaultPlan::Sample(uint64_t seed, int num_nodes, double horizon_sec) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  Rng rng(seed ^ 0xfa017ec7ed5eedULL);
  const int count = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < count; ++i) {
    FaultEvent event;
    event.kind = static_cast<FaultKind>(rng.UniformInt(0, 3));
    event.node = num_nodes > 1 ? static_cast<int>(rng.UniformInt(0, num_nodes - 1)) : 0;
    // Leave room for a recovery inside the horizon so restarts get exercised.
    event.at_sec = rng.Uniform(0, horizon_sec * 0.7);
    event.duration_sec = rng.Uniform(horizon_sec * 0.05, horizon_sec * 0.3);
    switch (event.kind) {
      case FaultKind::kNodeCrash:
        event.severity = 1;
        break;
      case FaultKind::kDiskDegrade:
        event.severity = rng.Uniform(2, 20);
        break;
      case FaultKind::kLinkDegrade:
        event.severity = rng.Uniform(0.05, 0.5);
        break;
      case FaultKind::kCpuStraggler:
        event.severity = static_cast<double>(rng.UniformInt(4, 32));
        break;
    }
    plan.events.push_back(event);
  }
  return plan;
}

}  // namespace perfiso
