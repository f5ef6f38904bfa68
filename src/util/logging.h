// Minimal leveled logging for the library and its tools.
//
// Usage: PERFISO_LOG(kInfo) << "controller step " << n;
// The default sink writes to stderr; tests can install a capture sink.
#ifndef PERFISO_SRC_UTIL_LOGGING_H_
#define PERFISO_SRC_UTIL_LOGGING_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace perfiso {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

const char* LogLevelName(LogLevel level);

// Global minimum level; messages below it are dropped cheaply.
LogLevel MinLogLevel();

// Replaces the log sink. Passing nullptr restores the stderr sink.
using LogSink = std::function<void(LogLevel, const std::string&)>;
void SetLogSink(LogSink sink);

// Sim-time log stamps. When a simulator is driving the current thread it
// registers a clock here, and every message logged from that thread is
// prefixed with the current simulated time ("[t=1.250000s] "); wall-clock
// stamps are meaningless in-sim. The registration is thread-local so the
// parallel bench runner's per-thread simulators stamp independently.
//
// `fn(ctx)` must return the current sim time in nanoseconds. The returned
// registration restores the previous clock when passed back to
// ClearThreadSimClock, so nested simulators (a sim constructed inside an
// event of another) unwind correctly.
struct SimClockRegistration {
  uint64_t (*fn)(const void*) = nullptr;
  const void* ctx = nullptr;
};
SimClockRegistration SetThreadSimClock(uint64_t (*fn)(const void*), const void* ctx);
void ClearThreadSimClock(SimClockRegistration previous);

// Internal: one log statement. Flushes to the sink on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace perfiso

#define PERFISO_LOG(severity)                                              \
  if (::perfiso::LogLevel::severity < ::perfiso::MinLogLevel()) {          \
  } else                                                                   \
    ::perfiso::LogMessage(::perfiso::LogLevel::severity, __FILE__, __LINE__).stream()

#endif  // PERFISO_SRC_UTIL_LOGGING_H_
