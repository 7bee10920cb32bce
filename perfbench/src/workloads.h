// The benchmark's three workloads.  One call runs one repetition: set-up
// (timed), the job (timed), the correctness gate, and — in a traced
// repetition — the layer probes on the workload's own deployment.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RepResult {
  // Host wall-clock seconds.
  double setup_s = 0.0;
  double job_s = 0.0;
  // Host seconds of the phase that ran the plug flows counted in
  // `flows_done` (the job on plug_rollout, fleet bring-up elsewhere).
  double flow_phase_s = 0.0;
  uint64_t flows_done = 0;
  uint64_t all_flows_done = 0;  // including set-up flows
  uint64_t ops_done = 0;  // completed job operations
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Deterministic sim-time and count metrics: identical for a seed.
  std::map<std::string, Metric> exact;
  // Host-time layer metrics (the probes' only in traced repetitions).
  std::map<std::string, Metric> host_layer;
  // Sample count behind every percentile.
  std::map<std::string, uint64_t> samples;
  std::vector<std::string> failures;
};

bool IsWorkload(const std::string& name);
RepResult RunRep(const std::string& workload, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
