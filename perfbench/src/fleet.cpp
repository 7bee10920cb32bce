#include "perfbench/src/fleet.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/src/trace.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace perfbench {

namespace {

constexpr Kind kKinds[kNumKinds] = {Kind::kTmp36, Kind::kHih4030, Kind::kId20La, Kind::kBmp180,
                                    Kind::kRelay};

int KindIndex(Kind kind) { return static_cast<int>(kind); }

Kind KindOfType(DeviceTypeId type) {
  for (Kind kind : kKinds) {
    if (TypeOf(kind) == type) {
      return kind;
    }
  }
  return Kind::kTmp36;
}

uint64_t NowNs(Deployment& d) { return d.scheduler().now().nanos(); }

// Badge reader model.  The ID-20LA driver only listens for a frame after its
// read handler ran, and a frame that starts before that is captured from the
// middle.  So a badge is presented only once the Thing's driver has
// dispatched an event since the last check (the read), and never while the
// previous card's frame is still on the wire.  Polls start after the
// fastest possible request delivery.
constexpr double kCardFirstPollMs = 12.0;
constexpr double kCardPollMs = 4.0;
// One 16-byte frame at 9600 8N1 is 16.7 ms; the margin covers the driver's
// last newdata dispatch.
constexpr uint64_t kCardFrameNs = 25'000'000;

// Share of Things attached below a relay node instead of the border router,
// and Things per relay node.
constexpr double kBehindRelay = 0.25;
constexpr int kThingsPerRelay = 16;

}  // namespace

DeviceTypeId TypeOf(Kind kind) {
  switch (kind) {
    case Kind::kTmp36:
      return kTmp36TypeId;
    case Kind::kHih4030:
      return kHih4030TypeId;
    case Kind::kId20La:
      return kId20LaTypeId;
    case Kind::kBmp180:
      return kBmp180TypeId;
    case Kind::kRelay:
      return kRelayTypeId;
  }
  return 0;
}

RequestOptions GatewayRequestOptions() {
  RequestOptions options;
  // Seven sends over 16 s: at the workloads' link loss a read fails
  // (every request or reply lost) with probability below 1e-7.
  options.deadline_ms = 16000.0;
  options.max_retransmits = 6;
  options.initial_backoff_ms = 250.0;
  return options;
}

Fleet::Fleet(const FleetSpec& spec) : spec_(spec), rng_(spec.seed ^ 0x7065726662656e63ull) {
  DeploymentConfig config;
  config.seed = spec.seed;
  config.link.loss_rate = spec.loss_rate;
  deployment_ = std::make_unique<Deployment>(config);
  manager_ = &deployment_->AddManager("manager", nullptr, /*preload_bundled_drivers=*/false);

  for (const BundledDriver& driver : BundledDrivers()) {
    Result<DriverImage> image = [&] {
      HostSpan span("dsl.compile");
      return CompileDriver(driver.source);
    }();
    if (!image.ok()) {
      value_failures_.push_back(std::string("compile failed: ") + driver.name);
      continue;
    }
    crc_[KindIndex(KindOfType(driver.device_id))] = image->ImageCrc();
    HostSpan span("proto.manager.add_driver");
    if (!manager_->AddDriver(*image).ok()) {
      value_failures_.push_back(std::string("manager rejected driver ") + driver.name);
    }
  }

  gateway_ = &deployment_->AddClient("gateway", nullptr, /*max_in_flight=*/4096);
  gateway_->set_advertisement_listener(
      [this](const Ip6Address& thing, const std::vector<AdvertisedPeripheral>& peripherals) {
        OnAdvertisement(thing, peripherals);
      });
  gateway_groups_ = gateway_->node().group_count();

  // Equal shares of the five bundled kinds, shuffled by the seed; a seeded
  // share of Things sits one hop further down, behind relay nodes.
  std::vector<Kind> kinds(static_cast<size_t>(spec.things));
  for (size_t i = 0; i < kinds.size(); ++i) {
    kinds[i] = kKinds[i % kNumKinds];
  }
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng_.UniformInt(0, i - 1)]);
  }
  const int relay_nodes =
      std::max(1, static_cast<int>(spec.things * kBehindRelay) / kThingsPerRelay);
  std::vector<NetNode*> relays;
  for (int r = 0; r < relay_nodes; ++r) {
    relays.push_back(deployment_->AddRelayNode("relay-" + std::to_string(r)));
  }

  members_.resize(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) {
    Member& m = members_[i];
    m.kind = kinds[i];
    NetNode* parent = nullptr;
    if (rng_.Bernoulli(kBehindRelay)) {
      parent = relays[rng_.UniformInt(0, relays.size() - 1)];
    }
    {
      HostSpan span("core.add_thing");
      m.thing = &deployment_->AddThing("thing-" + std::to_string(i), parent);
    }
    switch (m.kind) {
      case Kind::kTmp36:
        m.peripheral = &deployment_->MakeTmp36();
        break;
      case Kind::kHih4030:
        m.peripheral = &deployment_->MakeHih4030();
        break;
      case Kind::kId20La:
        m.rfid = &deployment_->MakeId20La();
        m.peripheral = m.rfid;
        break;
      case Kind::kBmp180:
        m.peripheral = &deployment_->MakeBmp180();
        break;
      case Kind::kRelay:
        m.relay = &deployment_->MakeRelay();
        m.peripheral = m.relay;
        break;
    }
    by_address_[m.thing->node().address()] = static_cast<int>(i);
  }
}

MicroPnpClient& Fleet::operator_client() {
  if (operator_ == nullptr) {
    operator_ = &deployment_->AddClient("operator");
  }
  return *operator_;
}

void Fleet::SchedulePlugWave(double spread_ms, bool evict, size_t first, size_t last) {
  Scheduler& scheduler = deployment_->scheduler();
  for (size_t i = first; i < last && i < members_.size(); ++i) {
    const double offset_ms = rng_.Uniform(0.0, spread_ms);
    ++harness_events_;
    scheduler.ScheduleAfter(SimTime::FromMillis(offset_ms), [this, i, evict] {
      Member& m = members_[i];
      if (evict && !m.thing->drivers().RemoveImage(TypeOf(m.kind)).ok()) {
        value_failures_.push_back("driver eviction failed on " + m.thing->node().name());
      }
      Flow flow;
      flow.op = tracer().NextOp();
      flow.plugged = NowNs(*deployment_);
      m.flow = static_cast<int>(flows_.size());
      flows_.push_back(flow);
      Status plugged = [&] {
        HostSpan span("proto.thing.plug", flow.op);
        return m.thing->Plug(0, m.peripheral);
      }();
      if (!plugged.ok()) {
        value_failures_.push_back("plug failed on thing-" + std::to_string(i) + ": " +
                                  plugged.ToString());
      }
    });
  }
}

void Fleet::UnplugAll() {
  for (Member& m : members_) {
    HostSpan span("proto.thing.unplug");
    if (!m.thing->Unplug(0).ok()) {
      value_failures_.push_back("unplug failed on " + m.thing->node().name());
    }
    m.flow = -1;
  }
}

void Fleet::ScheduleDiscovery(double after_ms, double window_ms) {
  ++harness_events_;
  deployment_->scheduler().ScheduleAfter(SimTime::FromMillis(after_ms), [this, window_ms] {
    for (Kind kind : kKinds) {
      ++discoveries_.issued;
      HostSpan span("proto.client.discover");
      gateway_->Discover(
          TypeOf(kind), window_ms,
          [this, kind](Result<std::vector<MicroPnpClient::DiscoveredThing>> found) {
            if (!found.ok()) {
              ++discoveries_.failed;
              return;
            }
            ++discoveries_.completed;
            for (const MicroPnpClient::DiscoveredThing& thing : *found) {
              ++discovered_;
              auto it = by_address_.find(thing.address);
              if (it == by_address_.end() ||
                  members_[static_cast<size_t>(it->second)].kind != kind) {
                value_failures_.push_back("discovery of " + std::to_string(TypeOf(kind)) +
                                          " answered by a Thing of another kind");
              }
            }
          });
    }
  });
}

void Fleet::PublishTmp36Version(uint32_t version) {
  const BundledDriver* driver = FindBundledDriver(kTmp36TypeId);
  // A driver-private handler that only returns the build number: the image
  // (and its CRC) changes, the read path does not.
  char tail[96];
  std::snprintf(tail, sizeof(tail), "\nevent build_id():\n    return %u;\n", version & 0x7fff);
  Result<DriverImage> image = [&] {
    HostSpan span("dsl.compile");
    return CompileDriver(std::string(driver->source) + tail);
  }();
  if (!image.ok() || !manager_->AddDriver(*image).ok()) {
    value_failures_.push_back("new driver version rejected: " + image.status().ToString());
    return;
  }
  crc_[KindIndex(Kind::kTmp36)] = image->ImageCrc();
}

void Fleet::RunToQuiescence(double max_ms) {
  const double until = deployment_->NowMillis() + max_ms;
  while (!deployment_->scheduler().empty() && deployment_->NowMillis() < until) {
    HostSpan span("sim.run");
    deployment_->RunForMillis(1000.0);
  }
}

void Fleet::OnAdvertisement(const Ip6Address& thing,
                            const std::vector<AdvertisedPeripheral>& peripherals) {
  if (model_server_ != nullptr) {
    HostSpan span("model.observe_advertisement");
    model_server_->ObserveAdvertisement(thing, peripherals);
  }
  auto it = by_address_.find(thing);
  if (it == by_address_.end()) {
    return;
  }
  Member& m = members_[static_cast<size_t>(it->second)];
  if (m.flow < 0 || flows_[static_cast<size_t>(m.flow)].read_issued) {
    return;
  }
  const Flow& flow = flows_[static_cast<size_t>(m.flow)];
  const bool listed =
      std::any_of(peripherals.begin(), peripherals.end(),
                  [&](const AdvertisedPeripheral& p) { return p.type == TypeOf(m.kind); });
  // Only the advertisement this plug produced counts: a trickle repeat of
  // an earlier flow must not trigger a read of a driver not yet active.
  const std::optional<PlugFlowMarks>& marks = m.thing->last_plug_flow();
  if (!listed || !marks.has_value() || marks->plugged.nanos() != flow.plugged ||
      marks->advertised.nanos() < flow.plugged || marks->advertised.nanos() == 0) {
    return;
  }
  IssueFirstRead(it->second);
}

void Fleet::IssueFirstRead(int index) {
  Member& m = members_[static_cast<size_t>(index)];
  const int flow_index = m.flow;
  Flow& flow = flows_[static_cast<size_t>(flow_index)];
  flow.read_issued = true;
  ReadOp(
      index,
      [this, index, flow_index](bool ok) {
        Flow& f = flows_[static_cast<size_t>(flow_index)];
        const Member& member = members_[static_cast<size_t>(index)];
        const std::optional<PlugFlowMarks>& marks = member.thing->last_plug_flow();
        if (!ok || !marks.has_value() || marks->plugged.nanos() != f.plugged) {
          return;  // counted as a flow that never reached its first read
        }
        f.identified = marks->identified.nanos();
        f.group_joined = marks->group_joined.nanos();
        f.driver_received = marks->driver_received.nanos();
        f.installed = marks->driver_installed.nanos();
        f.advertised = marks->advertised.nanos();
        f.first_read = NowNs(*deployment_);
        f.done = true;
        if (!MarksMonotone(f)) {
          value_failures_.push_back("plug-flow marks out of order on " +
                                    member.thing->node().name());
        }
        if (tracer().on()) {
          tracer().Sim("hw.identify", f.op, f.plugged, f.identified);
          tracer().Sim("net.join", f.op, f.identified, f.group_joined);
          tracer().Sim("proto.ota", f.op, f.group_joined, f.driver_received);
          tracer().Sim("rt.install", f.op, f.driver_received, f.installed);
          tracer().Sim("proto.advertise", f.op, f.installed, f.advertised);
          tracer().Sim("proto.first_read", f.op, f.advertised, f.first_read);
          tracer().Sim("flow.plug_to_read", f.op, f.plugged, f.first_read);
        }
      },
      flow_reads_, flow.op);
}

bool Fleet::MarksMonotone(const Flow& f) {
  return f.plugged <= f.identified && f.identified <= f.group_joined &&
         f.group_joined <= f.driver_received && f.driver_received <= f.installed &&
         f.installed <= f.advertised && f.advertised <= f.first_read;
}

RfidCard Fleet::CardFor(int index) const {
  return RfidCard{0x4a, static_cast<uint8_t>(spec_.seed), static_cast<uint8_t>(index >> 16),
                  static_cast<uint8_t>(index >> 8), static_cast<uint8_t>(index)};
}

void Fleet::ArmCard(int index) {
  Member& m = members_[static_cast<size_t>(index)];
  m.card_wanted = true;
  const uint32_t generation = ++m.card_generation;
  m.dispatch_mark = m.thing->drivers().router().events_dispatched();
  ++harness_events_;
  deployment_->scheduler().ScheduleAfter(
      SimTime::FromMillis(kCardFirstPollMs),
      [this, index, generation] { CardPoll(index, generation); });
}

void Fleet::CardPoll(int index, uint32_t generation) {
  Member& m = members_[static_cast<size_t>(index)];
  if (!m.card_wanted || m.card_generation != generation) {
    return;
  }
  const uint64_t now = NowNs(*deployment_);
  const uint64_t dispatched = m.thing->drivers().router().events_dispatched();
  if (now >= m.card_busy_until_ns) {
    if (m.remark) {
      // The last frame's own newdata events are not a new read.
      m.dispatch_mark = dispatched;
      m.remark = false;
    } else if (dispatched > m.dispatch_mark) {
      HostSpan span("hw.present_card");
      m.rfid->PresentCard(CardFor(index));
      m.card_busy_until_ns = now + kCardFrameNs;
      m.remark = true;
    }
  }
  ++harness_events_;
  deployment_->scheduler().ScheduleAfter(
      SimTime::FromMillis(kCardPollMs), [this, index, generation] { CardPoll(index, generation); });
}

void Fleet::ReadOp(int index, std::function<void(bool ok)> done, OpLedger& ledger, uint64_t op) {
  Member& m = members_[static_cast<size_t>(index)];
  m.busy = true;
  ++ledger.issued;
  if (m.kind == Kind::kId20La) {
    ArmCard(index);
  }
  const uint64_t start = NowNs(*deployment_);
  HostSpan span("proto.client.read", op);
  gateway_->Read(
      m.thing->node().address(), TypeOf(m.kind),
      [this, index, start, op, &ledger, done = std::move(done)](Result<WireValue> value) {
        Member& member = members_[static_cast<size_t>(index)];
        member.busy = false;
        member.card_wanted = false;
        const uint64_t end = NowNs(*deployment_);
        const bool ok = value.ok() && CheckValue(index, *value);
        if (ok) {
          ++ledger.completed;
          ledger.latency_ns.push_back(end - start);
        } else {
          ++ledger.failed;
        }
        if (tracer().on()) {
          tracer().Sim("op.read", op, start, end);
        }
        done(ok);
      },
      GatewayRequestOptions());
}

void Fleet::WriteOp(int index, int32_t value, std::function<void(bool ok)> done,
                    OpLedger& ledger, uint64_t op) {
  Member& m = members_[static_cast<size_t>(index)];
  m.busy = true;
  ++ledger.issued;
  const uint64_t start = NowNs(*deployment_);
  HostSpan span("proto.client.write", op);
  gateway_->Write(
      m.thing->node().address(), TypeOf(m.kind), value,
      [this, index, value, start, op, &ledger, done = std::move(done)](Status status) {
        Member& member = members_[static_cast<size_t>(index)];
        member.busy = false;
        const uint64_t end = NowNs(*deployment_);
        if (status.ok()) {
          member.written = value;
          member.wrote = true;
          ++ledger.completed;
          ledger.latency_ns.push_back(end - start);
        } else {
          ++ledger.failed;
        }
        if (tracer().on()) {
          tracer().Sim("op.write", op, start, end);
        }
        done(status.ok());
      },
      GatewayRequestOptions());
}

bool Fleet::CheckValue(int index, const WireValue& value) {
  const Member& m = members_[static_cast<size_t>(index)];
  bool ok = false;
  // Physical ranges of the sensors, in each driver's reported unit.
  switch (m.kind) {
    case Kind::kTmp36:  // 0.1 degC, -40..125 degC
      ok = !value.is_array && value.scalar >= -400 && value.scalar <= 1250;
      break;
    case Kind::kHih4030:  // 0.1 %RH
      ok = !value.is_array && value.scalar >= 0 && value.scalar <= 1000;
      break;
    case Kind::kBmp180:  // Pa, 300..1100 hPa
      ok = !value.is_array && value.scalar >= 30000 && value.scalar <= 110000;
      break;
    case Kind::kRelay:
      ok = !value.is_array && (value.scalar == 0 || value.scalar == 1);
      break;
    case Kind::kId20La: {
      const std::string payload(value.bytes.begin(), value.bytes.end());
      ok = value.is_array && ValidateId20LaPayload(payload) &&
           payload == Id20LaPayload(CardFor(index));
      break;
    }
  }
  if (!ok && value_failures_.size() < 16) {
    value_failures_.push_back("out-of-range value from " + m.thing->node().name() + " (" +
                              m.peripheral->name() + "): " +
                              (value.is_array ? std::string(value.bytes.begin(), value.bytes.end())
                                              : std::to_string(value.scalar)));
  }
  return ok;
}

void Fleet::CheckQuiescent(std::vector<std::string>& failures) {
  failures.insert(failures.end(), value_failures_.begin(), value_failures_.end());
  if (!deployment_->scheduler().empty()) {
    failures.push_back("scheduler not drained: " +
                       std::to_string(deployment_->scheduler().pending()) + " events pending");
  }
  auto check_endpoint = [&failures](const std::string& who, const ProtoEndpoint& endpoint) {
    const EndpointCounters& c = endpoint.counters();
    if (c.completed_ok + c.deadline_exceeded + c.cancelled != c.requests_started) {
      failures.push_back(who + " ledger: completed+deadline+cancelled != issued");
    }
    if (endpoint.in_flight() != 0) {
      failures.push_back(who + " pending table not drained");
    }
  };
  check_endpoint("gateway", gateway_->endpoint());
  if (gateway_->node().group_count() != gateway_groups_) {
    failures.push_back("gateway stream groups not drained");
  }
  check_endpoint("manager", manager_->endpoint());
  if (operator_ != nullptr) {
    check_endpoint("operator", operator_->endpoint());
  }
  for (const Member& m : members_) {
    check_endpoint(m.thing->node().name(), m.thing->endpoint());
  }
  if (flow_reads_.issued != flow_reads_.completed + flow_reads_.failed) {
    failures.push_back("first-read ledger unbalanced");
  }
  if (discoveries_.issued != discoveries_.completed + discoveries_.failed) {
    failures.push_back("discovery ledger unbalanced");
  }
  for (const Member& m : members_) {
    if (m.flow < 0) {
      continue;
    }
    const Flow& f = flows_[static_cast<size_t>(m.flow)];
    if (!f.done) {
      continue;
    }
    const DriverImage* image = m.thing->drivers().ImageFor(TypeOf(m.kind));
    if (image == nullptr || image->ImageCrc() != crc_[KindIndex(m.kind)]) {
      failures.push_back("installed image CRC differs from the manager's on " +
                         m.thing->node().name());
    }
    if (m.wrote && m.relay != nullptr && m.relay->closed() != (m.written != 0)) {
      failures.push_back("relay state differs from last acknowledged write on " +
                         m.thing->node().name());
    }
  }
}

}  // namespace perfbench
