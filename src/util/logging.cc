#include "src/util/logging.h"

#include <cstdio>
#include <mutex>
#include <utility>

namespace perfiso {
namespace {

LogLevel g_min_level = LogLevel::kInfo;
LogSink g_sink;  // empty => stderr
std::mutex g_sink_mutex;

void DefaultSink(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[%s] %s\n", LogLevelName(level), message.c_str());
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

LogLevel MinLogLevel() { return g_min_level; }

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink = std::move(sink);
}

namespace {
thread_local SimClockRegistration t_sim_clock;
}  // namespace

SimClockRegistration SetThreadSimClock(uint64_t (*fn)(const void*), const void* ctx) {
  const SimClockRegistration previous = t_sim_clock;
  t_sim_clock = SimClockRegistration{fn, ctx};
  return previous;
}

void ClearThreadSimClock(SimClockRegistration previous) { t_sim_clock = previous; }

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  if (t_sim_clock.fn != nullptr) {
    const uint64_t now_ns = t_sim_clock.fn(t_sim_clock.ctx);
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "[t=%.6fs] ",
                  static_cast<double>(now_ns) / 1e9);
    stream_ << stamp;
  }
  // Strip the directory part; file:line is enough to locate the statement.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink) {
    g_sink(level_, stream_.str());
  } else {
    DefaultSink(level_, stream_.str());
  }
}

}  // namespace perfiso
