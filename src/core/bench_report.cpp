#include "src/core/bench_report.h"

#include <algorithm>
#include <cstdio>

namespace micropnp {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void AppendField(std::string& out, const char* key, uint64_t value, bool last) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), last ? "" : ", ");
  out += buf;
}

void AppendField(std::string& out, const char* key, double value, bool last) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f%s", key, value, last ? "" : ", ");
  out += buf;
}

}  // namespace micropnp
