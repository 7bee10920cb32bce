// Layer probes for the traced run.  After the job, each probe times calls
// into one layer's public entry points on the workload's own deployment
// (its tree, its installed driver images, its gateway), so a layer-local
// speed-up shows here even when the end-to-end numbers hide it.

#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include "perfbench/src/fleet.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

// `server` is the workload's own model server, or nullptr when the job has
// none (a probe model mix then runs on the gateway).
void RunProbes(Fleet& fleet, ModelServer* server, RepResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
