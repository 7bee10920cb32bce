// perfbench: the repository benchmark driver.
//
//   perfbench --workload <plug_rollout|gateway_read|model_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Untraced (--trace 0): repeats set-up + job with the given seed until
// --seconds have passed (at least twice), plus one repetition on a held-out
// seed.  Sim-time and count metrics must be identical across every
// repetition of the seed (the determinism self-check); host-time metrics
// are medians over those repetitions.  Every repetition must pass the
// correctness gate.
//
// Traced (--trace 1): three untraced and three traced repetitions of the
// seed, alternating; each traced one ends with the layer probes.  Prints the
// per-layer metrics (from the last traced repetition; sim.event_ns scaled to
// the untraced median job_s) and the tracing overhead against that job_s.
//
// The last stdout line is the result object; the line before it records the
// machine, build and the sample count behind every percentile.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

// Names and units of BENCHMARK.json's end_to_end and per_layer lists.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"job_s", "s"},
    {"things_per_s", "1/s"},
    {"reads_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"plug_to_read_p50_ms", "ms"},
    {"plug_to_read_p99_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"device_reads_per_read", "ratio"},
    {"frames_per_op", "count"},
};

const char* const kPerLayer[] = {
    "hw.identify_p50_ms",        "hw.identify_p99_ms",
    "net.join_p50_ms",           "net.join_p99_ms",
    "proto.ota_p50_ms",          "proto.ota_p99_ms",
    "rt.install_p50_ms",         "rt.install_p99_ms",
    "proto.advertise_p50_ms",    "proto.advertise_p99_ms",
    "proto.first_read_p50_ms",   "proto.first_read_p99_ms",
    "net.multicast_send_us",     "net.multicast_frames",
    "proto.chunks_per_transfer", "proto.chunk_retx_ratio",
    "proto.short_circuit_ratio", "proto.readvert_suppressed_ratio",
    "rt.decode_us",              "rt.decode_cache_hit_ratio",
    "rt.decode_share_of_job",    "sim.event_ns",
    "sim.events_per_op",         "proto.codec_ns",
    "proto.retransmits_per_op",  "proto.stale_reply_ratio",
    "proto.peak_in_flight",      "rt.vm_dispatch_ns",
    "rt.router_ns",              "rt.router_events_per_op",
    "model.read_hit_ns",         "model.hit_rate",
    "model.coalesced_ratio",     "model.upstream_restarts",
    "dsl.compile_us",            "core.add_thing_us",
    "trace.overhead_ratio",      "trace.spans",
};

constexpr int kTracePairs = 3;
constexpr size_t kTraceCapacity = size_t{1} << 20;
// Spans written to the trace file (the first ones recorded, which include
// every set-up plug flow); all of them are kept in memory for the checks.
constexpr size_t kTraceFileSpans = 100000;
// Derived from the seed, never equal to it.
constexpr uint64_t kHeldOutSalt = 0x9e3779b97f4a7c15ull;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every sim-time and count metric of a repetition, as text.
std::string Fingerprint(const RepResult& r, const std::map<std::string, Metric>* keys = nullptr) {
  std::string out;
  for (const auto& [name, metric] : keys != nullptr ? *keys : r.exact) {
    auto it = r.exact.find(name);
    out += name + "=" + (it == r.exact.end() ? "missing" : Number(it->second.value)) + ";";
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void AddFailures(std::vector<std::string>& all, const RepResult& r, const std::string& prefix) {
  for (const std::string& f : r.failures) {
    all.push_back(prefix + f);
  }
}

// Checks, on the recorded spans, that each flow's stage spans add up exactly
// to its plug-to-first-read span.  Returns the number of flows verified.
uint64_t VerifyStageSums(std::vector<std::string>& failures) {
  std::map<uint64_t, int64_t> stage_sum;
  std::map<uint64_t, int64_t> total;
  for (const Tracer::Span& s : tracer().spans()) {
    if (!s.sim) {
      continue;
    }
    const std::string name = s.name;
    if (name == "flow.plug_to_read") {
      total[s.op] = s.end_ns - s.start_ns;
    } else if (name == "hw.identify" || name == "net.join" || name == "proto.ota" ||
               name == "rt.install" || name == "proto.advertise" ||
               name == "proto.first_read") {
      stage_sum[s.op] += s.end_ns - s.start_ns;
    }
  }
  for (const auto& [op, ns] : total) {
    if (stage_sum[op] != ns) {
      failures.push_back("flow op " + std::to_string(op) + ": stage spans sum to " +
                         std::to_string(stage_sum[op]) + " ns, plug-to-read is " +
                         std::to_string(ns) + " ns");
    }
  }
  return total.size();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <plug_rollout|gateway_read|model_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !IsWorkload(workload) || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, uint64_t> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int reps = 0;
  std::string rep_times;  // per-repetition host times, for the info line

  if (trace == 0) {
    const Clock::time_point start = Clock::now();
    std::vector<RepResult> runs;
    runs.push_back(RunRep(workload, seed, false));
    const std::string reference = Fingerprint(runs.front());
    runs.push_back(RunRep(workload, seed, false));
    RepResult held_out = RunRep(workload, seed ^ kHeldOutSalt, false);
    AddFailures(failures, held_out, "held-out seed: ");
    while (SecondsBetween(start, Clock::now()) < seconds && runs.size() < 64) {
      runs.push_back(RunRep(workload, seed, false));
    }
    std::vector<double> setup, job, things, ops;
    for (size_t i = 0; i < runs.size(); ++i) {
      const RepResult& r = runs[i];
      AddFailures(failures, r, "repetition " + std::to_string(i) + ": ");
      if (Fingerprint(r) != reference) {
        failures.push_back("repetition " + std::to_string(i) +
                           ": sim-time/count metrics differ from repetition 0 of the same seed");
      }
      setup.push_back(r.setup_s);
      job.push_back(r.job_s);
      rep_times += (i == 0 ? "" : ", ") + std::string("[") + Number(r.setup_s) + ", " +
                   Number(r.job_s) + "]";
      things.push_back(static_cast<double>(r.flows_done) / r.flow_phase_s);
      ops.push_back(static_cast<double>(r.ops_done) / r.job_s);
    }
    const RepResult& first = runs.front();
    metrics["setup_s"] = {Median(setup), "s"};
    metrics["job_s"] = {Median(job), "s"};
    metrics["things_per_s"] = {Median(things), "1/s"};
    metrics["reads_per_s"] = {Median(ops), "1/s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    for (const auto& entry : kEndToEnd) {
      const std::string name = entry[0];
      if (metrics.count(name) != 0) {
        continue;
      }
      auto it = first.exact.find(name);
      metrics[name] = it != first.exact.end() ? it->second : Metric{0.0, "missing"};
      if (it == first.exact.end()) {
        failures.push_back("end-to-end metric not measured: " + name);
      }
    }
    samples = first.samples;
    attempted = first.attempted;
    failed = first.failed;
    reps = static_cast<int>(runs.size());
  } else {
    // Untraced and traced repetitions alternate, so the overhead compares
    // medians taken over the same stretch of machine time.
    std::vector<RepResult> untraced_runs;
    std::vector<RepResult> traced_runs;
    for (int i = 0; i < kTracePairs; ++i) {
      untraced_runs.push_back(RunRep(workload, seed, false));
      AddFailures(failures, untraced_runs.back(), "untraced: ");
      tracer().Enable(kTraceCapacity);
      traced_runs.push_back(RunRep(workload, seed, true));
      tracer().Disable();
      AddFailures(failures, traced_runs.back(), "traced: ");
      if (Fingerprint(traced_runs.back(), &untraced_runs.front().exact) !=
          Fingerprint(untraced_runs.front())) {
        failures.push_back("tracing changed sim-time/count metrics");
      }
    }
    const RepResult& untraced = untraced_runs.front();
    const RepResult& traced = traced_runs.back();  // its spans are the tracer's
    const uint64_t verified = VerifyStageSums(failures);
    if (verified != traced.all_flows_done) {
      failures.push_back("stage sums verified for " + std::to_string(verified) + " of " +
                         std::to_string(traced.all_flows_done) + " flows");
    }
    if (!trace_out.empty() && !tracer().WriteChromeTrace(trace_out, kTraceFileSpans)) {
      failures.push_back("could not write " + trace_out);
    }
    std::vector<double> untraced_job, traced_job;
    for (const RepResult& r : untraced_runs) {
      untraced_job.push_back(r.job_s);
    }
    for (const RepResult& r : traced_runs) {
      traced_job.push_back(r.job_s);
    }
    const double job_s = Median(untraced_job);

    std::map<std::string, Metric> layer = traced.exact;
    for (const auto& [name, metric] : traced.host_layer) {
      layer[name] = metric;
    }
    // The job's event count is fixed by the seed, so the median job time
    // scales the first repetition's per-event cost.
    layer["sim.event_ns"] = {
        untraced.host_layer.at("sim.event_ns").value * job_s / untraced.job_s, "ns"};
    auto mean_us = [](const char* span) {
      auto it = tracer().totals().find(span);
      return it == tracer().totals().end() || it->second.count == 0
                 ? 0.0
                 : static_cast<double>(it->second.ns) / 1e3 /
                       static_cast<double>(it->second.count);
    };
    layer["dsl.compile_us"] = {mean_us("dsl.compile"), "us"};
    layer["core.add_thing_us"] = {mean_us("core.add_thing"), "us"};
    // Upper bound on decode's share of the job: decodes the job ran, at the
    // probe's per-decode cost, over the untraced job time.
    layer["rt.decode_share_of_job"] = {layer["rt.decodes_in_job"].value *
                                           layer["rt.decode_us"].value * 1e-6 / job_s,
                                       "ratio"};
    layer["trace.overhead_ratio"] = {Median(traced_job) / job_s - 1.0, "ratio"};
    layer["trace.spans"] = {static_cast<double>(tracer().recorded()), "count"};
    for (const char* name : kPerLayer) {
      auto it = layer.find(name);
      metrics[name] = it != layer.end() ? it->second : Metric{0.0, "missing"};
      if (it == layer.end()) {
        failures.push_back(std::string("per-layer metric not measured: ") + name);
      }
    }
    samples = traced.samples;
    attempted = untraced.attempted;
    failed = untraced.failed;
    reps = 2 * kTracePairs;
  }

  const bool correct = failures.empty();
  std::string info = "{\"info\": {\"workload\": " + JsonString(workload) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"held_out_seed\": " + std::to_string(seed ^ kHeldOutSalt) +
                     ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"threads\": 1, \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"repetitions\": " + std::to_string(reps) +
                     ", \"setup_and_job_s\": [" + rep_times + "]" +
                     ", \"samples\": {";
  bool first_sample = true;
  for (const auto& [name, count] : samples) {
    info += (first_sample ? "" : ", ") + JsonString(name) + ": " + std::to_string(count);
    first_sample = false;
  }
  info += "}, \"failures\": [";
  for (size_t i = 0; i < failures.size() && i < 32; ++i) {
    info += (i == 0 ? "" : ", ") + JsonString(failures[i]);
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first_metric = true;
  auto emit = [&](const std::string& name, const Metric& m) {
    result += (first_metric ? "" : ", ") + JsonString(name) + ": {\"value\": " +
              Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first_metric = false;
  };
  if (trace == 0) {
    for (const auto& entry : kEndToEnd) {
      emit(entry[0], Metric{metrics[entry[0]].value, entry[1]});
    }
  } else {
    for (const char* name : kPerLayer) {
      emit(name, metrics[name]);
    }
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
