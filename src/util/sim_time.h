// Simulation time: 64-bit signed nanoseconds since simulation start.
//
// A plain integer (not std::chrono) keeps event-queue keys trivially
// comparable and the arithmetic explicit; helper constants keep call sites
// readable (e.g. `5 * kMicrosecond`).
#ifndef PERFISO_SRC_UTIL_SIM_TIME_H_
#define PERFISO_SRC_UTIL_SIM_TIME_H_

#include <cstdint>

namespace perfiso {

using SimTime = int64_t;      // absolute, ns
using SimDuration = int64_t;  // relative, ns

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;

inline constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / kMillisecond; }
inline constexpr double ToMicros(SimDuration d) { return static_cast<double>(d) / kMicrosecond; }
inline constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }

inline constexpr SimDuration FromMillis(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
inline constexpr SimDuration FromMicros(double us) {
  return static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
}

}  // namespace perfiso

#endif  // PERFISO_SRC_UTIL_SIM_TIME_H_
