#include "perfbench/src/probes.h"

#include <functional>
#include <string>

#include "perfbench/src/trace.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/net/multicast_schema.h"
#include "src/rt/event_router.h"
#include "src/rt/vm.h"

namespace perfbench {

namespace {

// Sized so each probe takes a few to a few tens of milliseconds.
constexpr int kMulticastSends = 200;
constexpr int kDecodeRounds = 10;
constexpr int kCodecRounds = 50000;
constexpr int kVmRounds = 20000;
constexpr int kRouterRounds = 200000;
constexpr int kModelHits = 200000;
constexpr uint64_t kModelMixReads = 20000;
constexpr uint64_t kModelMixWindow = 64;
constexpr double kModelMixTtlMs = 1000.0;
constexpr double kModelMixStreamMs = 3000.0;
constexpr uint16_t kProbePort = 0xbeef;  // bound by no node: deliveries are dropped

// Destination no result depends on, so the optimizer keeps the probed work.
volatile uint64_t g_sink = 0;

int FirstOfKind(Fleet& fleet, Kind kind) {
  std::vector<Member>& members = fleet.members();
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].kind == kind && members[i].thing->drivers().HasDriverFor(TypeOf(kind))) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// SMRF send from a Thing behind the border router to a peripheral group whose
// members are spread over the workload's tree.
void ProbeMulticast(Fleet& fleet, RepResult& r) {
  Deployment& d = fleet.deployment();
  NetNode& source = fleet.members().back().thing->node();
  const Ip6Address group = PeripheralGroup(source.prefix(), kTmp36TypeId);
  const std::vector<uint8_t> payload(16, 0x5a);
  const uint64_t frames_before = d.fabric().multicast_frames();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMulticastSends; ++i) {
    source.SendUdp(group, kProbePort, payload);
  }
  const double seconds = SecondsBetween(start, Clock::now());
  r.host_layer["net.multicast_send_us"] = {seconds * 1e6 / kMulticastSends, "us"};
  r.exact["net.multicast_frames"] = {
      static_cast<double>(d.fabric().multicast_frames() - frames_before) / kMulticastSends,
      "count"};
  fleet.RunToQuiescence(60000.0);
}

// Verify + analyze + decode of every bundled image and one generated build.
void ProbeDecode(RepResult& r) {
  std::vector<DriverImage> images;
  for (const BundledDriver& driver : BundledDrivers()) {
    if (Result<DriverImage> image = CompileDriver(driver.source); image.ok()) {
      images.push_back(*image);
    }
  }
  const BundledDriver* tmp36 = FindBundledDriver(kTmp36TypeId);
  if (Result<DriverImage> image =
          CompileDriver(std::string(tmp36->source) + "\nevent build_id():\n    return 7;\n");
      image.ok()) {
    images.push_back(*image);
  }
  int decodes = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kDecodeRounds; ++round) {
    for (const DriverImage& image : images) {
      Result<DecodedImage> decoded = DecodedImage::Decode(image);
      g_sink = g_sink + (decoded.ok() ? 1 : 0);
      ++decodes;
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  r.host_layer["rt.decode_us"] = {seconds * 1e6 / std::max(decodes, 1), "us"};
}

// Serialize + parse of the gateway's request and reply shapes.
void ProbeCodec(RepResult& r) {
  WireValue scalar;
  scalar.scalar = 231;
  WireValue badge;
  badge.is_array = true;
  badge.bytes.assign(12, '7');
  const Message messages[] = {
      MakeMessage(MessageType::kRead, 17, DeviceTargetPayload{kTmp36TypeId}),
      MakeMessage(MessageType::kData, 17, ValuePayload{kTmp36TypeId, scalar}),
      MakeMessage(MessageType::kData, 18, ValuePayload{kId20LaTypeId, badge}),
      MakeMessage(MessageType::kWrite, 19, WritePayload{kRelayTypeId, 1}),
  };
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kCodecRounds; ++round) {
    for (const Message& m : messages) {
      const std::vector<uint8_t> wire = m.Serialize();
      Result<Message> parsed = Message::Parse(ByteSpan(wire.data(), wire.size()));
      g_sink = g_sink + (parsed.ok() ? parsed->sequence : 0);
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  r.host_layer["proto.codec_ns"] = {seconds * 1e9 / (kCodecRounds * 4.0), "ns"};
}

// read + newdata handlers of every installed driver kind, on a standalone VM
// over the decoded image the fleet is running.
void ProbeVm(Fleet& fleet, RepResult& r) {
  uint64_t dispatches = 0;
  double seconds = 0.0;
  for (Kind kind : {Kind::kTmp36, Kind::kHih4030, Kind::kId20La, Kind::kBmp180, Kind::kRelay}) {
    const int index = FirstOfKind(fleet, kind);
    if (index < 0) {
      continue;
    }
    Vm vm(fleet.members()[static_cast<size_t>(index)].thing->drivers().DecodedFor(TypeOf(kind)));
    const Clock::time_point start = Clock::now();
    for (int round = 0; round < kVmRounds; ++round) {
      Vm::ExecResult read = vm.Dispatch(Event::Of(kEventRead), nullptr);
      Vm::ExecResult data = vm.Dispatch(Event::Of(kEventNewData, 400 + (round & 63)), nullptr);
      g_sink = g_sink + read.instructions + static_cast<uint64_t>(data.value);
    }
    seconds += SecondsBetween(start, Clock::now());
    dispatches += 2 * kVmRounds;
  }
  r.host_layer["rt.vm_dispatch_ns"] = {
      seconds * 1e9 / static_cast<double>(std::max<uint64_t>(dispatches, 1)), "ns"};
}

void ProbeRouter(RepResult& r) {
  EventRouter router;
  uint64_t seen = 0;
  const EventRouter::Sink sink = [&seen](int, const Event& event) { seen += event.id; };
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < kRouterRounds; ++round) {
    router.Post(0, Event::Of(kEventRead));
    router.DispatchOne(sink);
  }
  const double seconds = SecondsBetween(start, Clock::now());
  g_sink = g_sink + seen;
  r.host_layer["rt.router_ns"] = {seconds * 1e9 / kRouterRounds, "ns"};
}

// The model tier on a workload whose job runs none: a probe server over the
// workload's gateway tracks every readable Thing and serves a closed loop of
// skewed reads (the hit and coalescing rates follow from the fleet's read
// latency against the TTL), then one stream that the operator client stops
// half-way, so the re-establish ladder runs.
void ProbeModelMix(Fleet& fleet, RepResult& r) {
  Deployment& d = fleet.deployment();
  ModelServerConfig config;
  config.hook_advertisements = false;
  config.default_ttl_ms = kModelMixTtlMs;
  const RequestOptions device = GatewayRequestOptions();
  config.device_timeout_ms = device.deadline_ms;
  config.device_retransmits = device.max_retransmits;
  ModelServer server(d.scheduler(), fleet.gateway(), ModelCatalog::BuiltIn(), config);
  std::vector<Member>& members = fleet.members();
  std::vector<int> readable;
  for (size_t i = 0; i < members.size(); ++i) {
    const DeviceTypeId type = TypeOf(members[i].kind);
    if (members[i].kind != Kind::kId20La && members[i].thing->drivers().HasDriverFor(type)) {
      readable.push_back(static_cast<int>(i));
      server.ObserveAdvertisement(members[i].thing->node().address(),
                                  {AdvertisedPeripheral{type, {}}});
    }
  }
  const int sensor = FirstOfKind(fleet, Kind::kTmp36);
  if (readable.empty() || sensor < 0) {
    r.failures.push_back("model mix probe: no readable Things");
    return;
  }
  auto address = [&](int index) {
    return members[static_cast<size_t>(index)].thing->node().address();
  };
  uint64_t issued = 0;
  uint64_t resolved = 0;
  uint64_t failed = 0;
  bool pumping = false;
  std::function<void()> pump = [&] {
    if (pumping) {
      return;  // a cache hit completed inside ReadValue; the loop below goes on
    }
    pumping = true;
    while (issued < kModelMixReads && issued - resolved < kModelMixWindow) {
      ++issued;
      // Skewed popularity, as in model_mix: u^3 over the readable Things.
      const double u = fleet.rng().NextDouble();
      const int index =
          readable[static_cast<size_t>(u * u * u * static_cast<double>(readable.size()))];
      server.ReadValue(address(index), TypeOf(members[static_cast<size_t>(index)].kind),
                       [&, index](Result<WireValue> value) {
                         ++resolved;
                         failed += value.ok() && fleet.CheckValue(index, *value) ? 0 : 1;
                         pump();
                       });
    }
    pumping = false;
  };
  pump();
  while (resolved < issued && d.scheduler().Step()) {
  }

  uint64_t received = 0;
  Result<SubscriptionId> sub =
      server.Subscribe(address(sensor), kTmp36TypeId, [&](const WireValue& value) {
        ++received;
        (void)fleet.CheckValue(sensor, value);
      });
  d.RunForMillis(kModelMixStreamMs / 2);
  fleet.operator_client().StopStream(address(sensor), kTmp36TypeId, GatewayRequestOptions());
  d.RunForMillis(kModelMixStreamMs / 2);
  if (sub.ok()) {
    server.Unsubscribe(address(sensor), kTmp36TypeId, *sub);
  }
  fleet.RunToQuiescence(60000.0);

  const ModelServerCounters& c = server.counters();
  if (failed != 0 || resolved != issued || !sub.ok() || received == 0) {
    r.failures.push_back("model mix probe: " + std::to_string(failed) + " failed reads, " +
                         std::to_string(issued - resolved) + " unresolved, " +
                         std::to_string(received) + " stream values");
  }
  if (c.cache_hits + c.cache_misses != c.reads ||
      c.coalesced_reads + c.device_reads != c.cache_misses || !server.FanoutStats().empty()) {
    r.failures.push_back("model mix probe: server identities do not hold");
  }
  r.exact["model.hit_rate"] = {static_cast<double>(c.cache_hits) / static_cast<double>(c.reads),
                               "ratio"};
  r.exact["model.coalesced_ratio"] = {
      static_cast<double>(c.coalesced_reads) / static_cast<double>(c.cache_misses), "ratio"};
  r.exact["model.upstream_restarts"] = {static_cast<double>(c.upstream_restarts), "count"};
}

// Cache-hit reads on a probe server over the workload's gateway: one miss
// fills the entry, then every read is a hit (no simulated time passes).
void ProbeModel(Fleet& fleet, RepResult& r) {
  Deployment& d = fleet.deployment();
  const int index = FirstOfKind(fleet, Kind::kTmp36);
  if (index < 0) {
    return;
  }
  ModelServerConfig config;
  config.hook_advertisements = false;
  config.default_ttl_ms = 1e12;
  ModelServer probe(d.scheduler(), fleet.gateway(), ModelCatalog::BuiltIn(), config);
  const Ip6Address thing = fleet.members()[static_cast<size_t>(index)].thing->node().address();
  probe.ObserveAdvertisement(thing, {AdvertisedPeripheral{kTmp36TypeId, {}}});
  bool filled = false;
  probe.ReadValue(thing, kTmp36TypeId, [&filled](Result<WireValue>) { filled = true; });
  while (!filled && d.scheduler().Step()) {
  }
  uint64_t hits = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kModelHits; ++i) {
    probe.ReadValue(thing, kTmp36TypeId, [&hits](Result<WireValue> value) {
      hits += value.ok() ? 1 : 0;
    });
  }
  const double seconds = SecondsBetween(start, Clock::now());
  r.host_layer["model.read_hit_ns"] = {seconds * 1e9 / kModelHits, "ns"};
  if (hits != static_cast<uint64_t>(kModelHits)) {
    r.failures.push_back("model probe: cached reads did not all hit");
  }
  fleet.RunToQuiescence(60000.0);
}

}  // namespace

void RunProbes(Fleet& fleet, ModelServer* server, RepResult& r) {
  ProbeMulticast(fleet, r);
  ProbeDecode(r);
  ProbeCodec(r);
  ProbeVm(fleet, r);
  ProbeRouter(r);
  ProbeModel(fleet, r);
  if (server == nullptr) {
    ProbeModelMix(fleet, r);
  }
}

}  // namespace perfbench
