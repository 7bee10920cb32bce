// A benchmark fleet: one Deployment on the library's default runtime, a
// manager holding every bundled driver, one gateway client, and a mixed
// fleet of Things (some behind relay nodes), driven only through public
// APIs.
//
// The fleet owns the bookkeeping every workload shares: plug flows (plug ->
// identify -> join -> OTA -> install -> advertise -> gateway's first read),
// gateway operations with their sim-time latencies, value range checks, and
// the end-of-run correctness gate.

#ifndef PERFBENCH_SRC_FLEET_H_
#define PERFBENCH_SRC_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/deployment.h"
#include "src/model/model_server.h"

namespace perfbench {

using namespace micropnp;

enum class Kind : uint8_t { kTmp36, kHih4030, kId20La, kBmp180, kRelay };
inline constexpr int kNumKinds = 5;

DeviceTypeId TypeOf(Kind kind);

struct FleetSpec {
  uint64_t seed = 1;
  int things = 1000;
  double loss_rate = 0.0;
};

// One plug flow's sim-time marks, in nanoseconds.
struct Flow {
  uint64_t op = 0;
  uint64_t plugged = 0;
  uint64_t identified = 0;
  uint64_t group_joined = 0;
  uint64_t driver_received = 0;
  uint64_t installed = 0;
  uint64_t advertised = 0;
  uint64_t first_read = 0;
  bool read_issued = false;
  bool done = false;  // reached its first successful read
};

struct Member {
  MicroPnpThing* thing = nullptr;
  Kind kind = Kind::kTmp36;
  Peripheral* peripheral = nullptr;
  Id20La* rfid = nullptr;
  Relay* relay = nullptr;
  int flow = -1;        // current plug flow, -1 when none
  bool busy = false;    // a gateway operation is in flight
  bool card_wanted = false;
  uint32_t card_generation = 0;  // stale badge-poll chains stop on mismatch
  // Badge reader: driver events dispatched when last checked, and when the
  // last presented card's frame has fully crossed the UART.
  uint64_t dispatch_mark = 0;
  uint64_t card_busy_until_ns = 0;
  bool remark = false;
  int32_t written = 0;   // last relay value acknowledged
  bool wrote = false;
};

// Outcome ledger of the benchmark's own operations.
struct OpLedger {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latency_ns;  // completed ops only
};

class Fleet {
 public:
  // Constructs the deployment, compiles and publishes every bundled driver,
  // adds the gateway and the (unplugged) fleet.
  explicit Fleet(const FleetSpec& spec);

  Deployment& deployment() { return *deployment_; }
  MicroPnpManager& manager() { return *manager_; }
  MicroPnpClient& gateway() { return *gateway_; }
  // A second client, added on first use, that stops streams the gateway
  // holds (a foreign stop), so the model tier's re-establish path runs.
  MicroPnpClient& operator_client();
  std::vector<Member>& members() { return members_; }
  const std::vector<Flow>& flows() const { return flows_; }
  Rng& rng() { return rng_; }

  // Plugs members [first, last) at seeded times within `spread_ms` from now;
  // the gateway reads each Thing once the advertisement of that plug
  // arrives.  `evict` first drops the Thing's installed driver image, so the
  // plug asks the manager again (a re-plug after a driver update).
  void SchedulePlugWave(double spread_ms, bool evict, size_t first, size_t last);
  void UnplugAll();

  // Gateway discovery (2) of every kind, `after_ms` from now, each gathering
  // (3) replies for `window_ms`.  A Thing that answers suppresses its next
  // trickle re-advertisement.  Discoveries are recorded in `discoveries()`;
  // every reply must come from a Thing of the kind asked for.
  void ScheduleDiscovery(double after_ms, double window_ms);

  // Publishes a new, behaviour-identical build of the TMP36 driver (a
  // version constant derived from `version`), so re-plugged TMP36s pull it
  // over the air while other kinds short-circuit.
  void PublishTmp36Version(uint32_t version);

  // Runs the simulation until no event is pending (bounded by `max_ms`).
  void RunToQuiescence(double max_ms);

  // One gateway read of member `index` (presenting a badge to an ID-20LA)
  // or write of a relay, recorded in `ledger` with its sim-time latency.
  // `done` gets whether it succeeded and its value was in range.
  void ReadOp(int index, std::function<void(bool ok)> done, OpLedger& ledger, uint64_t op);
  void WriteOp(int index, int32_t value, std::function<void(bool ok)> done, OpLedger& ledger,
               uint64_t op);

  // Optional model server fed from the gateway's advertisements.
  void AttachModelServer(ModelServer* server) { model_server_ = server; }

  // Range check of a value read from `kind`; false records a check failure.
  bool CheckValue(int index, const WireValue& value);

  // End-of-run correctness gate; appends one line per violation.
  void CheckQuiescent(std::vector<std::string>& failures);

  // Reads issued by plug flows.
  const OpLedger& flow_reads() const { return flow_reads_; }
  const OpLedger& discoveries() const { return discoveries_; }
  // Things that answered a discovery.
  uint64_t discovered() const { return discovered_; }
  // Events the benchmark itself scheduled (plugs, badge polls).
  uint64_t harness_events() const { return harness_events_; }

 private:
  static bool MarksMonotone(const Flow& f);
  void OnAdvertisement(const Ip6Address& thing, const std::vector<AdvertisedPeripheral>& periph);
  void IssueFirstRead(int index);
  void ArmCard(int index);
  void CardPoll(int index, uint32_t generation);
  RfidCard CardFor(int index) const;

  FleetSpec spec_;
  Rng rng_;
  std::unique_ptr<Deployment> deployment_;
  MicroPnpManager* manager_ = nullptr;
  MicroPnpClient* gateway_ = nullptr;
  MicroPnpClient* operator_ = nullptr;
  ModelServer* model_server_ = nullptr;
  std::vector<Member> members_;
  std::vector<Flow> flows_;
  std::unordered_map<Ip6Address, int> by_address_;
  uint32_t crc_[kNumKinds] = {};
  OpLedger flow_reads_;
  OpLedger discoveries_;
  uint64_t discovered_ = 0;
  std::vector<std::string> value_failures_;
  uint64_t harness_events_ = 0;
  size_t gateway_groups_ = 0;
};

// Gateway request policy shared by every gateway operation.
RequestOptions GatewayRequestOptions();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FLEET_H_
