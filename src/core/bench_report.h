// Shared helpers for the library bench scenarios (gateway_bench,
// model_bench): the nearest-rank percentile and the fixed-format JSON field
// writer both emitters use, so their documents format numbers identically.

#ifndef SRC_CORE_BENCH_REPORT_H_
#define SRC_CORE_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace micropnp {

// Nearest-rank percentile (p in [0, 1]) of an ascending-sorted sample; 0
// for an empty one.
double Percentile(const std::vector<double>& sorted, double p);

// Appends `"key": value` plus a ", " separator unless `last`.  Integers
// print as %llu, doubles as %.6f.
void AppendField(std::string& out, const char* key, uint64_t value, bool last = false);
void AppendField(std::string& out, const char* key, double value, bool last = false);

}  // namespace micropnp

#endif  // SRC_CORE_BENCH_REPORT_H_
