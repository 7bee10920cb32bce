// Span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code: host-time spans
// around each call into a library layer, and sim-time spans for every
// operation (issue -> callback) and every plug-flow stage.  Spans of one
// operation share an op id.  They stay in a bounded in-memory buffer and are
// written out as Chrome trace_event JSON when the run ends.  With tracing
// off, a span costs one predictable branch.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t op;
    int64_t start_ns;  // host: ns since the tracer was enabled; sim: sim ns
    int64_t end_ns;
    bool sim;
  };
  struct Total {
    uint64_t count = 0;
    int64_t ns = 0;
  };

  void Enable(size_t capacity);
  void Disable() { on_ = false; }
  bool on() const { return on_; }

  uint64_t NextOp() { return ++next_op_; }

  void Host(const char* name, uint64_t op, Clock::time_point start, Clock::time_point end);
  void Sim(const char* name, uint64_t op, uint64_t start_ns, uint64_t end_ns);

  // Count and summed duration per span name, over every span recorded
  // (including those beyond the buffer capacity).
  const std::map<std::string, Total>& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t recorded() const { return recorded_; }

  // Writes the first `max_spans` spans.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  void Record(const Span& span);

  bool on_ = false;
  size_t capacity_ = 0;
  Clock::time_point origin_;
  uint64_t next_op_ = 0;
  uint64_t recorded_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
};

Tracer& tracer();

// Times one call into a layer when tracing is on.
class HostSpan {
 public:
  HostSpan(const char* name, uint64_t op = 0) : name_(name), op_(op) {
    if (tracer().on()) {
      start_ = Clock::now();
    }
  }
  ~HostSpan() {
    if (tracer().on()) {
      tracer().Host(name_, op_, start_, Clock::now());
    }
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  const char* name_;
  uint64_t op_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
