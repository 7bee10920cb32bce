#include "perfbench/src/workloads.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "perfbench/src/fleet.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"

namespace perfbench {

namespace {

// ---- workload sizes ---------------------------------------------------------
// plug_rollout: an installed base brought up in set-up, then the rollout of
// new Things into the live site.  Large enough that advertisement multicast
// routing (quadratic in fleet size today) dominates the job.
constexpr int kRolloutBase = 2000;
constexpr int kRolloutNew = 2000;
constexpr double kRolloutLoss = 0.02;
constexpr double kRolloutSpreadMs = 30000.0;
// The gateway discovers every kind half-way through the rollout, while the
// new Things' trickle ladders run, so answering Things suppress ticks.
constexpr double kRolloutDiscoveryWindowMs = 2000.0;

// gateway_read and model_mix share one fleet shape.
constexpr int kFleetThings = 3000;
constexpr double kFleetLoss = 0.01;
constexpr double kBringUpSpreadMs = 20000.0;

constexpr uint64_t kGatewayOps = 250000;
constexpr int kGatewayWindow = 128;

constexpr int kModelClients = 4000;
constexpr uint64_t kModelOps = 600000;
constexpr int kModelWindow = 512;
constexpr int kModelWriteEvery = 16;
constexpr double kModelTtlMs = 1000.0;
constexpr int kModelStreams = 64;
constexpr double kModelFanoutMs = 20000.0;
// Streams an operator client stops half-way through the fan-out phase; the
// model server re-establishes each for its remaining subscribers.
constexpr size_t kModelForeignStops = 8;

// Upper bound on simulated time for any phase to quiesce; every protocol
// timer is bounded, so hitting it means a leak (reported by the gate).
constexpr double kQuiesceLimitMs = 3.6e6;

uint64_t Pct(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  // Nearest rank, ceil(p * n), tolerating the product's rounding error.
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void PutPercentiles(RepResult& r, const std::string& name, std::vector<uint64_t> ns) {
  std::sort(ns.begin(), ns.end());
  r.exact[name + "_p50_ms"] = {Ms(Pct(ns, 0.50)), "ms"};
  r.exact[name + "_p99_ms"] = {Ms(Pct(ns, 0.99)), "ms"};
  r.samples[name] = ns.size();
}

// Counters sampled at the start and end of the job.
struct Snapshot {
  uint64_t events = 0;
  uint64_t harness_events = 0;
  uint64_t frames = 0;
  uint64_t retransmits = 0;
  uint64_t gateway_requests = 0;
  uint64_t stale = 0;
  uint64_t matched = 0;
  uint64_t router_events = 0;
  uint64_t decode_misses = 0;
};

Snapshot Take(Fleet& fleet) {
  Snapshot s;
  Deployment& d = fleet.deployment();
  s.events = d.scheduler().executed();
  s.harness_events = fleet.harness_events();
  s.frames = d.fabric().frames_transmitted();
  const EndpointCounters& c = fleet.gateway().endpoint().counters();
  s.retransmits = c.retransmits;
  s.gateway_requests = c.requests_started;
  s.stale = c.stale_replies_dropped;
  s.matched = c.replies_matched;
  for (Member& m : fleet.members()) {
    s.router_events += m.thing->drivers().router().events_dispatched();
  }
  s.decode_misses = d.decode_cache().misses();
  return s;
}

// Protocol counters at the start of a phase of plug flows.
struct FlowBase {
  size_t first_flow = 0;
  size_t first_latency = 0;
  uint64_t uploads = 0;
  uint64_t short_circuits = 0;
  uint64_t chunks = 0;
  uint64_t chunk_retx = 0;
  uint64_t readvert_sent = 0;
  uint64_t readvert_suppressed = 0;
};

FlowBase MarkFlows(Fleet& fleet) {
  FlowBase b;
  b.first_flow = fleet.flows().size();
  b.first_latency = fleet.flow_reads().latency_ns.size();
  const MicroPnpManager& manager = fleet.manager();
  b.uploads = manager.uploads();
  b.short_circuits = manager.upload_short_circuits();
  b.chunks = manager.chunks_sent();
  b.chunk_retx = manager.chunk_retransmissions();
  for (Member& m : fleet.members()) {
    b.readvert_sent += m.thing->readvertisements_sent();
    b.readvert_suppressed += m.thing->readvertisements_suppressed();
  }
  return b;
}

// Plug-flow metrics over the flows started since `base`, plus the
// manager/Thing protocol ratios of that phase.
void PutFlowMetrics(Fleet& fleet, const FlowBase& base, RepResult& r) {
  std::vector<uint64_t> total, identify, join, ota, install, advertise, first_read;
  const std::vector<Flow>& flows = fleet.flows();
  for (size_t i = base.first_flow; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (!f.done) {
      continue;
    }
    total.push_back(f.first_read - f.plugged);
    identify.push_back(f.identified - f.plugged);
    join.push_back(f.group_joined - f.identified);
    ota.push_back(f.driver_received - f.group_joined);
    install.push_back(f.installed - f.driver_received);
    advertise.push_back(f.advertised - f.installed);
    first_read.push_back(f.first_read - f.advertised);
  }
  r.flows_done = total.size();
  r.exact["flows"] = {static_cast<double>(flows.size() - base.first_flow), "count"};
  PutPercentiles(r, "plug_to_read", std::move(total));
  PutPercentiles(r, "hw.identify", std::move(identify));
  PutPercentiles(r, "net.join", std::move(join));
  PutPercentiles(r, "proto.ota", std::move(ota));
  PutPercentiles(r, "rt.install", std::move(install));
  PutPercentiles(r, "proto.advertise", std::move(advertise));
  PutPercentiles(r, "proto.first_read", std::move(first_read));

  const FlowBase now = MarkFlows(fleet);
  const uint64_t uploads = now.uploads - base.uploads;
  const uint64_t short_circuits = now.short_circuits - base.short_circuits;
  const uint64_t chunks = now.chunks - base.chunks;
  r.exact["proto.chunks_per_transfer"] = {Ratio(chunks, uploads - short_circuits), "count"};
  r.exact["proto.chunk_retx_ratio"] = {Ratio(now.chunk_retx - base.chunk_retx, chunks), "ratio"};
  r.exact["proto.short_circuit_ratio"] = {Ratio(short_circuits, uploads), "ratio"};
  const uint64_t sent = now.readvert_sent - base.readvert_sent;
  const uint64_t suppressed = now.readvert_suppressed - base.readvert_suppressed;
  r.exact["proto.readvert_suppressed_ratio"] = {Ratio(suppressed, sent + suppressed), "ratio"};
}

// Job-phase metrics shared by every workload.  `ops` completed operations,
// `user_reads` reads requested by the workload's users and `device_reads`
// μPnP read transactions they cost.
void PutJobMetrics(Fleet& fleet, const Snapshot& before, const Snapshot& after, uint64_t ops,
                   uint64_t user_reads, uint64_t device_reads, RepResult& r) {
  r.ops_done = ops;
  const uint64_t events =
      (after.events - before.events) - (after.harness_events - before.harness_events);
  r.exact["sim.events_per_op"] = {Ratio(events, ops), "count"};
  r.exact["frames_per_op"] = {Ratio(after.frames - before.frames, ops), "count"};
  r.exact["device_reads_per_read"] = {Ratio(device_reads, user_reads), "ratio"};
  r.exact["proto.retransmits_per_op"] = {Ratio(after.retransmits - before.retransmits, ops),
                                         "count"};
  const uint64_t stale = after.stale - before.stale;
  r.exact["proto.stale_reply_ratio"] = {Ratio(stale, stale + (after.matched - before.matched)),
                                        "ratio"};
  r.exact["proto.peak_in_flight"] = {
      static_cast<double>(fleet.gateway().endpoint().counters().peak_in_flight), "count"};
  r.exact["rt.router_events_per_op"] = {Ratio(after.router_events - before.router_events, ops),
                                        "count"};
  r.exact["rt.decodes_in_job"] = {static_cast<double>(after.decode_misses - before.decode_misses),
                                  "count"};
  const SharedDecodeCache& cache = fleet.deployment().decode_cache();
  r.exact["rt.decode_cache_hit_ratio"] = {Ratio(cache.hits(), cache.hits() + cache.misses()),
                                          "ratio"};
  // Host time per executed scheduler event over the whole job.
  r.host_layer["sim.event_ns"] = {
      r.job_s * 1e9 / static_cast<double>(std::max<uint64_t>(events, 1)), "ns"};
}

void Finish(Fleet& fleet, RepResult& r) {
  fleet.CheckQuiescent(r.failures);
  for (const Flow& f : fleet.flows()) {
    r.all_flows_done += f.done ? 1 : 0;
  }
  r.exact["attempted"] = {static_cast<double>(r.attempted), "count"};
  r.exact["failed"] = {static_cast<double>(r.failed), "count"};
}

// ---- plug_rollout -----------------------------------------------------------
// A live site (installed base brought up in set-up) receives a cold,
// staggered rollout of new Things (no preinstalled drivers); then the
// manager publishes a new TMP36 driver build and every Thing is re-plugged.
RepResult RunPlugRollout(uint64_t seed, bool traced) {
  RepResult r;
  const Clock::time_point setup_start = Clock::now();
  FleetSpec spec;
  spec.seed = seed;
  spec.things = kRolloutBase + kRolloutNew;
  spec.loss_rate = kRolloutLoss;
  Fleet fleet(spec);
  const size_t all = fleet.members().size();
  fleet.SchedulePlugWave(kRolloutSpreadMs, /*evict=*/false, 0, kRolloutBase);
  fleet.RunToQuiescence(kQuiesceLimitMs);
  r.setup_s = SecondsBetween(setup_start, Clock::now());

  const FlowBase flows = MarkFlows(fleet);
  const uint64_t reads_before = fleet.flow_reads().issued;
  const Snapshot before = Take(fleet);
  const Clock::time_point job_start = Clock::now();
  fleet.SchedulePlugWave(kRolloutSpreadMs, /*evict=*/false, kRolloutBase, all);
  fleet.ScheduleDiscovery(kRolloutSpreadMs / 2, kRolloutDiscoveryWindowMs);
  fleet.RunToQuiescence(kQuiesceLimitMs);
  fleet.PublishTmp36Version(static_cast<uint32_t>(seed % 30000) + 1);
  fleet.UnplugAll();
  {
    HostSpan span("sim.run");
    fleet.deployment().RunForMillis(2000.0);
  }
  fleet.SchedulePlugWave(kRolloutSpreadMs, /*evict=*/true, 0, all);
  fleet.RunToQuiescence(kQuiesceLimitMs);
  r.job_s = SecondsBetween(job_start, Clock::now());
  r.flow_phase_s = r.job_s;
  const Snapshot after = Take(fleet);

  PutFlowMetrics(fleet, flows, r);
  const OpLedger& reads = fleet.flow_reads();
  PutPercentiles(r, "read",
                 std::vector<uint64_t>(reads.latency_ns.begin() +
                                           static_cast<std::ptrdiff_t>(flows.first_latency),
                                       reads.latency_ns.end()));
  const OpLedger& discoveries = fleet.discoveries();
  r.exact["proto.discovered_things"] = {static_cast<double>(fleet.discovered()), "count"};
  r.attempted = fleet.flows().size() - flows.first_flow + discoveries.issued;
  r.failed = r.attempted - r.flows_done - discoveries.completed;
  // Gateway requests of the job: the first reads plus the discoveries.
  PutJobMetrics(fleet, before, after, r.flows_done, reads.issued - reads_before,
                after.gateway_requests - before.gateway_requests - discoveries.issued, r);
  Finish(fleet, r);
  if (traced) {
    RunProbes(fleet, nullptr, r);
  }
  return r;
}

// Set-up shared by gateway_read and model_mix: the fleet is plugged for
// real (OTA included) and run until every trickle ladder is dormant.
void BringUp(Fleet& fleet, RepResult& r, const Clock::time_point setup_start) {
  const Clock::time_point bring_up_start = Clock::now();
  fleet.SchedulePlugWave(kBringUpSpreadMs, /*evict=*/false, 0, fleet.members().size());
  fleet.RunToQuiescence(kQuiesceLimitMs);
  const Clock::time_point end = Clock::now();
  r.flow_phase_s = SecondsBetween(bring_up_start, end);
  r.setup_s = SecondsBetween(setup_start, end);
}

FleetSpec SharedFleetSpec(uint64_t seed) {
  FleetSpec spec;
  spec.seed = seed;
  spec.things = kFleetThings;
  spec.loss_rate = kFleetLoss;
  return spec;
}

// ---- gateway_read -----------------------------------------------------------
// Closed loop over a quiescent fleet: reads of the four sensor kinds and
// writes of relays, `kGatewayWindow` in flight.
RepResult RunGatewayRead(uint64_t seed, bool traced) {
  RepResult r;
  const Clock::time_point setup_start = Clock::now();
  Fleet fleet(SharedFleetSpec(seed));
  BringUp(fleet, r, setup_start);

  std::vector<Member>& members = fleet.members();
  std::vector<int> order(members.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[fleet.rng().UniformInt(0, i - 1)]);
  }

  OpLedger ledger;
  size_t cursor = 0;
  uint64_t resolved = 0;
  uint64_t reads = 0;
  std::function<void()> issue_next = [&] {
    if (ledger.issued >= kGatewayOps) {
      return;
    }
    // Next Thing in the seeded order with no operation in flight.
    int index = order[cursor++ % order.size()];
    while (members[static_cast<size_t>(index)].busy) {
      index = order[cursor++ % order.size()];
    }
    const uint64_t op = tracer().NextOp();
    auto done = [&](bool) {
      ++resolved;
      issue_next();
    };
    Member& m = members[static_cast<size_t>(index)];
    if (m.kind == Kind::kRelay) {
      fleet.WriteOp(index, m.written ^ 1, done, ledger, op);
    } else {
      ++reads;
      fleet.ReadOp(index, done, ledger, op);
    }
  };

  const Snapshot before = Take(fleet);
  const Clock::time_point job_start = Clock::now();
  for (int i = 0; i < kGatewayWindow; ++i) {
    issue_next();
  }
  while (resolved < kGatewayOps) {
    HostSpan span("sim.run");
    fleet.deployment().RunForMillis(500.0);
  }
  fleet.RunToQuiescence(kQuiesceLimitMs);
  r.job_s = SecondsBetween(job_start, Clock::now());
  const Snapshot after = Take(fleet);

  PutFlowMetrics(fleet, FlowBase{}, r);
  PutPercentiles(r, "read", ledger.latency_ns);
  r.attempted = ledger.issued + fleet.flows().size();
  r.failed = ledger.failed + (fleet.flows().size() - r.flows_done);
  const uint64_t device_reads =
      (after.gateway_requests - before.gateway_requests) - (ledger.issued - reads);
  PutJobMetrics(fleet, before, after, ledger.completed, reads, device_reads, r);
  if (ledger.issued != ledger.completed + ledger.failed) {
    r.failures.push_back("gateway op ledger unbalanced");
  }
  Finish(fleet, r);
  if (traced) {
    RunProbes(fleet, nullptr, r);
  }
  return r;
}

// ---- model_mix --------------------------------------------------------------
// Thousands of ModelClients over one ModelServer: a skewed read mix with
// write-through relay writes, a hotspot burst, then subscription fan-out.
RepResult RunModelMix(uint64_t seed, bool traced) {
  RepResult r;
  const Clock::time_point setup_start = Clock::now();
  Fleet fleet(SharedFleetSpec(seed));
  ModelServerConfig config;
  config.hook_advertisements = false;  // the fleet forwards the gateway's advertisements
  config.default_ttl_ms = kModelTtlMs;
  config.stream_period_ms = 1000;
  const RequestOptions device = GatewayRequestOptions();
  config.device_timeout_ms = device.deadline_ms;
  config.device_retransmits = device.max_retransmits;
  ModelServer server(fleet.deployment().scheduler(), fleet.gateway(), ModelCatalog::BuiltIn(),
                     config);
  fleet.AttachModelServer(&server);
  std::vector<std::unique_ptr<ModelClient>> clients;
  for (int c = 0; c < kModelClients; ++c) {
    clients.push_back(std::make_unique<ModelClient>(server));
  }
  MicroPnpClient& operator_client = fleet.operator_client();
  BringUp(fleet, r, setup_start);
  if (server.fleet_size() != fleet.members().size()) {
    r.failures.push_back("model server tracks " + std::to_string(server.fleet_size()) +
                         " Things, fleet has " + std::to_string(fleet.members().size()));
  }

  // Readable targets (badge readers only answer with a card present, so the
  // model tier never polls them) in a seeded popularity order; relays take
  // the writes; sensors feed the streams.
  std::vector<Member>& members = fleet.members();
  std::vector<int> readable, relays, sensors;
  for (size_t i = 0; i < members.size(); ++i) {
    const Kind kind = members[i].kind;
    if (kind == Kind::kId20La) {
      continue;
    }
    readable.push_back(static_cast<int>(i));
    (kind == Kind::kRelay ? relays : sensors).push_back(static_cast<int>(i));
  }
  Rng& rng = fleet.rng();
  for (size_t i = readable.size(); i > 1; --i) {
    std::swap(readable[i - 1], readable[rng.UniformInt(0, i - 1)]);
  }
  Deployment& d = fleet.deployment();
  auto address = [&](int index) {
    return members[static_cast<size_t>(index)].thing->node().address();
  };
  auto type = [&](int index) { return TypeOf(members[static_cast<size_t>(index)].kind); };

  OpLedger ledger;  // model reads, writes and subscriptions
  uint64_t reads_requested = 0;
  uint64_t resolved = 0;
  // Op id of the ReadValue call on the stack: a callback that sees its own
  // id ran synchronously, i.e. was served from the cache.
  uint64_t calling = 0;
  bool pumping = false;
  std::function<void()> pump;
  // Ops whose ReadValue issued a device fetch.  Only those are latency
  // samples: a coalesced waiter's latency is a slice of its fetch's, and one
  // fetch's waiter cohort (thousands, for the hotspot) would otherwise move
  // the p99 on its own.
  std::unordered_set<uint64_t> fetching;
  auto read = [&](int index, uint64_t op, ModelClient& client) {
    ++ledger.issued;
    ++reads_requested;
    const uint64_t start = d.scheduler().now().nanos();
    const uint64_t fetches_before = server.counters().device_reads;
    calling = op;
    HostSpan span("model.read_value", op);
    client.ReadValue(address(index), type(index),
                     [&, index, op, start](Result<WireValue> value) {
                       const bool cached = calling == op;
                       const bool fetched = fetching.erase(op) != 0;
                       ++resolved;
                       if (value.ok() && fleet.CheckValue(index, *value)) {
                         ++ledger.completed;
                         if (!cached && fetched) {
                           const uint64_t end = d.scheduler().now().nanos();
                           ledger.latency_ns.push_back(end - start);
                           if (tracer().on()) {
                             tracer().Sim("op.model_read", op, start, end);
                           }
                         }
                       } else {
                         ++ledger.failed;
                       }
                       pump();
                     });
    if (calling == op && server.counters().device_reads != fetches_before) {
      fetching.insert(op);
    }
    calling = 0;
  };
  // Writes go to the next relay in turn with no write in flight: a Thing
  // applies every copy of a retransmitted write it receives, so two
  // overlapping writes of one relay leave no defined last value to check.
  size_t relay_cursor = 0;
  auto write = [&](uint64_t op, ModelClient& client) {
    int index = relays[relay_cursor++ % relays.size()];
    while (members[static_cast<size_t>(index)].busy) {
      index = relays[relay_cursor++ % relays.size()];
    }
    ++ledger.issued;
    Member& m = members[static_cast<size_t>(index)];
    m.busy = true;
    const int32_t value = m.written ^ 1;
    HostSpan span("model.write_value", op);
    client.WriteValue(address(index), type(index), value, [&, value, index](Status status) {
      ++resolved;
      Member& member = members[static_cast<size_t>(index)];
      member.busy = false;
      if (status.ok()) {
        ++ledger.completed;
        member.written = value;
        member.wrote = true;
      } else {
        ++ledger.failed;
      }
      pump();
    });
  };
  // Cache hits complete inside ReadValue, so the pump is iterative: a
  // completion re-enters it only to find it already running.
  pump = [&] {
    if (pumping) {
      return;
    }
    pumping = true;
    while (ledger.issued < kModelOps && ledger.issued - resolved < kModelWindow) {
      const uint64_t op = tracer().NextOp();
      ModelClient& client = *clients[ledger.issued % clients.size()];
      if ((ledger.issued + 1) % kModelWriteEvery == 0 && !relays.empty()) {
        write(op, client);
      } else {
        // Skewed popularity: u^3 concentrates reads on the head of the order.
        const double u = rng.NextDouble();
        read(readable[static_cast<size_t>(u * u * u * static_cast<double>(readable.size()))], op,
             client);
      }
    }
    pumping = false;
  };
  auto run_until_resolved = [&] {
    while (resolved < ledger.issued) {
      HostSpan span("sim.run");
      d.RunForMillis(100.0);
    }
  };

  const ModelServerCounters& counters = server.counters();
  const ModelServerCounters at_start = counters;
  const Snapshot before = Take(fleet);
  const Clock::time_point job_start = Clock::now();

  // Phase 1: read mix with write-through writes.
  pump();
  run_until_resolved();

  // Phase 2: hotspot burst on the most popular key, once its TTL expired.
  d.RunForMillis(kModelTtlMs + 1.0);
  const ModelServerCounters before_hotspot = counters;
  for (auto& client : clients) {
    read(readable.front(), tracer().NextOp(), *client);
  }
  run_until_resolved();
  r.exact["model.hotspot_device_reads"] = {
      static_cast<double>(counters.device_reads - before_hotspot.device_reads), "count"};

  // Phase 3: subscription fan-out for a fixed simulated duration.
  const size_t streams = std::min<size_t>(kModelStreams, sensors.size());
  std::vector<uint64_t> received(clients.size(), 0);
  for (size_t c = 0; c < clients.size() && streams > 0; ++c) {
    const int target = sensors[c % streams];
    ++ledger.issued;
    HostSpan span("model.subscribe");
    Result<SubscriptionId> sub = clients[c]->Subscribe(
        address(target), type(target), [&, c, target](const WireValue& value) {
          ++received[c];
          (void)fleet.CheckValue(target, value);
        });
    ++(sub.ok() ? ledger.completed : ledger.failed);
  }
  const uint64_t delivered_before = counters.fanout_delivered;
  auto run_for = [&](double ms) {
    const double until = d.NowMillis() + ms;
    while (d.NowMillis() < until) {
      HostSpan span("sim.run");
      d.RunForMillis(std::min(1000.0, until - d.NowMillis()));
    }
  };
  run_for(kModelFanoutMs / 2);
  for (size_t s = 0; s < std::min(kModelForeignStops, streams); ++s) {
    HostSpan span("proto.client.stop_stream");
    operator_client.StopStream(address(sensors[s]), type(sensors[s]), GatewayRequestOptions());
  }
  run_for(kModelFanoutMs / 2);
  uint64_t expected = 0;
  for (const ModelServer::FanoutStat& stat : server.FanoutStats()) {
    expected += stat.upstream_events * stat.subscribers;
  }
  const uint64_t delivered = counters.fanout_delivered - delivered_before;
  uint64_t client_received = 0;
  for (uint64_t n : received) {
    client_received += n;
  }
  for (auto& client : clients) {
    client->UnsubscribeAll();
  }
  fleet.RunToQuiescence(kQuiesceLimitMs);
  r.job_s = SecondsBetween(job_start, Clock::now());
  const Snapshot after = Take(fleet);

  // Model-tier identities.
  if (counters.cache_hits + counters.cache_misses != counters.reads) {
    r.failures.push_back("model: hits + misses != reads");
  }
  if (counters.coalesced_reads + counters.device_reads != counters.cache_misses) {
    r.failures.push_back("model: coalesced + device reads != misses");
  }
  if (delivered != expected || client_received != delivered || expected == 0) {
    r.failures.push_back("model: fan-out delivered " + std::to_string(delivered) +
                         ", subscribers saw " + std::to_string(client_received) +
                         ", expected " + std::to_string(expected));
  }
  if (!server.FanoutStats().empty()) {
    r.failures.push_back("model: fan-out groups not drained");
  }
  if (ledger.issued != ledger.completed + ledger.failed) {
    r.failures.push_back("model op ledger unbalanced");
  }

  const uint64_t reads = counters.reads - at_start.reads;
  r.exact["model.hit_rate"] = {Ratio(counters.cache_hits - at_start.cache_hits, reads), "ratio"};
  r.exact["model.coalesced_ratio"] = {
      Ratio(counters.coalesced_reads - at_start.coalesced_reads,
            counters.cache_misses - at_start.cache_misses),
      "ratio"};
  r.exact["model.upstream_restarts"] = {
      static_cast<double>(counters.upstream_restarts - at_start.upstream_restarts), "count"};
  r.exact["model.fanout_delivered"] = {static_cast<double>(delivered), "count"};

  PutFlowMetrics(fleet, FlowBase{}, r);
  PutPercentiles(r, "read", ledger.latency_ns);
  r.attempted = ledger.issued + fleet.flows().size();
  r.failed = ledger.failed + (fleet.flows().size() - r.flows_done);
  PutJobMetrics(fleet, before, after, ledger.completed, reads_requested,
                counters.device_reads - at_start.device_reads, r);
  Finish(fleet, r);
  if (traced) {
    RunProbes(fleet, &server, r);
  }
  return r;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "plug_rollout" || name == "gateway_read" || name == "model_mix";
}

RepResult RunRep(const std::string& workload, uint64_t seed, bool traced) {
  if (workload == "plug_rollout") {
    return RunPlugRollout(seed, traced);
  }
  if (workload == "gateway_read") {
    return RunGatewayRead(seed, traced);
  }
  return RunModelMix(seed, traced);
}

}  // namespace perfbench
