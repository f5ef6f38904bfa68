#include "src/util/config.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace perfiso {
namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

StatusOr<ConfigMap> ConfigMap::Parse(const std::string& text) {
  ConfigMap map;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("config line " + std::to_string(line_number) +
                                  ": missing '=' in \"" + trimmed + "\"");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      return InvalidArgumentError("config line " + std::to_string(line_number) + ": empty key");
    }
    map.entries_[key] = value;
  }
  return map;
}

std::string ConfigMap::Serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    out += key + " = " + value + "\n";
  }
  return out;
}

void ConfigMap::SetString(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}
void ConfigMap::SetInt(const std::string& key, int64_t value) {
  entries_[key] = std::to_string(value);
}
std::string FormatDouble(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void ConfigMap::SetDouble(const std::string& key, double value) {
  entries_[key] = FormatDouble(value);
}
void ConfigMap::SetBool(const std::string& key, bool value) {
  entries_[key] = value ? "true" : "false";
}

bool ConfigMap::Has(const std::string& key) const { return entries_.count(key) > 0; }

StatusOr<std::string> ConfigMap::GetString(const std::string& key, const std::string& def) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? def : it->second;
}

StatusOr<int64_t> ConfigMap::GetInt(const std::string& key, int64_t def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return InvalidArgumentError("config key \"" + key + "\": not an integer: " + it->second);
  }
  return value;
}

StatusOr<int> ConfigMap::GetInt32(const std::string& key, int def) const {
  auto value = GetInt(key, def);
  PERFISO_RETURN_IF_ERROR(value.status());
  if (*value < std::numeric_limits<int>::min() || *value > std::numeric_limits<int>::max()) {
    return InvalidArgumentError("config key \"" + key + "\": out of int range: " +
                                entries_.at(key));
  }
  return static_cast<int>(*value);
}

StatusOr<double> ConfigMap::GetDouble(const std::string& key, double def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return InvalidArgumentError("config key \"" + key + "\": not a number: " + it->second);
  }
  return value;
}

StatusOr<bool> ConfigMap::GetBool(const std::string& key, bool def) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return def;
  }
  if (it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") {
    return false;
  }
  return InvalidArgumentError("config key \"" + key + "\": not a bool: " + it->second);
}

}  // namespace perfiso
