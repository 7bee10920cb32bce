#include "perfbench/src/trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::Enable(size_t capacity) {
  on_ = true;
  capacity_ = capacity;
  origin_ = Clock::now();
  spans_.clear();
  spans_.reserve(capacity);
  totals_.clear();
  recorded_ = 0;
}

void Tracer::Host(const char* name, uint64_t op, Clock::time_point start, Clock::time_point end) {
  Record(Span{name, op,
              std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count(),
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count(),
              /*sim=*/false});
}

void Tracer::Sim(const char* name, uint64_t op, uint64_t start_ns, uint64_t end_ns) {
  Record(Span{name, op, static_cast<int64_t>(start_ns), static_cast<int64_t>(end_ns),
              /*sim=*/true});
}

void Tracer::Record(const Span& span) {
  ++recorded_;
  Total& total = totals_[span.name];
  ++total.count;
  total.ns += span.end_ns - span.start_ns;
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  }
}

bool Tracer::WriteChromeTrace(const std::string& path, size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  // Host spans on pid 1, sim spans on pid 2 (their clocks are unrelated);
  // the op id is the thread lane, so one operation's spans line up.
  std::fprintf(out, "{\"traceEvents\": [\n");
  bool first = true;
  const size_t written = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu}}",
                 first ? "" : ",\n", s.name, s.sim ? 2 : 1,
                 static_cast<unsigned long long>(s.op), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fprintf(out, "\n], \"otherData\": {\"spans_recorded\": %llu, \"spans_written\": %zu}}\n",
               static_cast<unsigned long long>(recorded_), written);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
