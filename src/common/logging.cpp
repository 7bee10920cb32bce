#include "src/common/logging.h"

#include <atomic>
#include <cstdio>

namespace micropnp {
namespace {

// The simulation logs from one thread, but bench_vm's thread sweep and
// embedding programs may not; relaxed is enough, since the level is a
// filter, not a synchronization point.
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void LogMessage(LogLevel level, const char* tag, const std::string& message) {
  if (level < GetLogLevel()) {
    return;
  }
  // One fprintf per line: POSIX stdio calls are atomic with respect to each
  // other, so a caller on another thread cannot split the line.
  std::fprintf(stderr, "[%s] %s: %s\n", LevelName(level), tag, message.c_str());
}

}  // namespace micropnp
