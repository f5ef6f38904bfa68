// Key=value configuration parsing.
//
// PerfIso reads its limits from cluster-wide key=value configuration (§4);
// scenario specs use the same format. The format here is a flat `key = value`
// text with `#` comments; keys are dotted (e.g. "cpu.buffer_cores"). Values
// are typed at access time with explicit error reporting.
#ifndef PERFISO_SRC_UTIL_CONFIG_H_
#define PERFISO_SRC_UTIL_CONFIG_H_

#include <map>
#include <string>

#include "src/util/status.h"

namespace perfiso {

// Shortest text that parses back to exactly `value` (std::to_chars): config
// round trips must describe the same experiment, not a 6-digit neighbor.
// Used by ConfigMap::SetDouble and every other serialized-double surface.
std::string FormatDouble(double value);

class ConfigMap {
 public:
  ConfigMap() = default;

  // Parses `text`; returns error with line number on malformed input.
  static StatusOr<ConfigMap> Parse(const std::string& text);

  // Serializes back to the text format (sorted by key).
  std::string Serialize() const;

  void SetString(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  bool Has(const std::string& key) const;

  // Typed getters: return the default when the key is absent, and an error
  // Status only on present-but-malformed values.
  StatusOr<std::string> GetString(const std::string& key, const std::string& def) const;
  StatusOr<int64_t> GetInt(const std::string& key, int64_t def) const;
  // GetInt for `int` fields: a value outside int's range is an error, not a
  // silent wrap.
  StatusOr<int> GetInt32(const std::string& key, int def) const;
  StatusOr<double> GetDouble(const std::string& key, double def) const;
  StatusOr<bool> GetBool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_CONFIG_H_
