// Lossy-network plug-in flow: trickle re-advertisement, chunked
// selective-repeat driver transfer, CRC-resume, and the plug-flow edge cases
// (driver-request re-arm, per-type group membership, stream teardown).
//
// Everything here is deterministic: fixed deployment seeds, simulated time.
// The fake-manager tests bind a bare relay node to the manager anycast
// address so the test controls exactly which offer/chunk datagrams exist.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/common/crc.h"
#include "src/core/deployment.h"
#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"

namespace micropnp {
namespace {

DriverImage CompiledBundledDriver(DeviceTypeId device) {
  const BundledDriver* bundled = FindBundledDriver(device);
  EXPECT_NE(bundled, nullptr);
  Result<DriverImage> image = CompileDriver(bundled->source);
  EXPECT_TRUE(image.ok());
  return *image;
}

LinkModel LinkWithLoss(double loss_rate) {
  LinkModel link;
  link.loss_rate = loss_rate;
  return link;
}

DeploymentConfig SeededConfig(uint64_t seed) {
  DeploymentConfig config;
  config.seed = seed;
  return config;
}

// ------------------------------------------------ trickle re-advertisement ---

TEST(Readvertisement, ConvergesAfterTotalLossHeals) {
  DeploymentConfig config;
  config.seed = 71001;
  config.link = LinkWithLoss(1.0);  // nothing gets through initially
  Deployment deployment(config);
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  // The driver is preinstalled, so the plug flow needs no network round
  // trip; only the advertisement has to reach the client.
  ASSERT_TRUE(thing.PreinstallDriver(CompiledBundledDriver(kTmp36TypeId)).ok());
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(2500);
  EXPECT_EQ(client.advertisements_seen(), 0u);  // (1) and early ticks lost

  deployment.fabric().set_link(LinkWithLoss(0.0));
  deployment.RunForMillis(10'000);  // next trickle tick lands
  EXPECT_GE(client.advertisements_seen(), 1u);
  EXPECT_GE(thing.readvertisements_sent(), 1u);
}

TEST(Readvertisement, TrickleLadderIsBoundedAndGoesDormant) {
  Deployment deployment(SeededConfig(71002));
  MicroPnpThing& thing = deployment.AddThing("thing");
  deployment.AddManager();

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  // Default schedule: +1s, +2s, +4s, ..., +64s after the peripheral change,
  // then dormant: 7 ticks total.
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.readvertisements_sent(), 7u);

  const uint64_t after_ladder = thing.advertisements_sent();
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.advertisements_sent(), after_ladder);  // dormant, no flood

  // Any peripheral change restarts the ladder from the minimum interval.
  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(200'000);
  EXPECT_EQ(thing.readvertisements_sent(), 14u);
}

TEST(Readvertisement, SolicitedAdvertisementSuppressesNextTick) {
  Deployment deployment(SeededConfig(71003));
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");
  deployment.AddManager();

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(1500);  // install + advertise, first tick pending

  // A discovery answered with (3) counts as a fresh advertisement, so the
  // next trickle tick is suppressed instead of re-flooding.
  bool discovered = false;
  client.Discover(kTmp36TypeId, 500,
                  [&](Result<std::vector<MicroPnpClient::DiscoveredThing>> things) {
                    discovered = things.ok() && !things->empty();
                  });
  deployment.RunForMillis(200'000);
  EXPECT_TRUE(discovered);
  EXPECT_GE(thing.readvertisements_suppressed(), 1u);
  EXPECT_LT(thing.readvertisements_sent(), 7u);
}

// --------------------------------------------- chunked transfer under loss ---

TEST(ChunkedTransfer, SurvivesLossyMultihopFabric) {
  // Seed chosen so this run both completes within the window and loses
  // chunks on the way — the selective-repeat path is actually exercised.
  DeploymentConfig config;
  config.seed = 11003;
  config.link = LinkWithLoss(0.2);
  Deployment deployment(config);
  MicroPnpManager& manager = deployment.AddManager();
  NetNode* relay1 = deployment.AddRelayNode("relay-1");
  NetNode* relay2 = deployment.AddRelayNode("relay-2", relay1);
  MicroPnpThing& thing = deployment.AddThing("thing", relay2);

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(16'000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  // The repair was selective: lost chunks were NACKed and re-served
  // individually, never as a monolithic image re-send.
  EXPECT_GE(thing.chunk_nacks_sent(), 1u);
  EXPECT_GE(manager.chunk_retransmissions(), 1u);
  EXPECT_LT(manager.chunk_retransmissions(), manager.chunks_sent());
}

// A scripted manager: a bare node bound to the manager anycast address whose
// offer/chunk behaviour the test controls datagram by datagram.
class FakeManager {
 public:
  FakeManager(Deployment& deployment, DeviceTypeId device)
      : scheduler_(deployment.scheduler()),
        node_(deployment.AddRelayNode("fake-manager")),
        device_(device) {
    image_bytes_ = CompiledBundledDriver(device).Serialize();
    crc_ = Crc32(image_bytes_);
    for (size_t off = 0; off < image_bytes_.size(); off += kChunkBytes) {
      const size_t len = std::min(kChunkBytes, image_bytes_.size() - off);
      chunks_.push_back({image_bytes_.begin() + off, image_bytes_.begin() + off + len});
    }
    node_->BindAnycast(ManagerAnycastAddress());
    node_->BindUdp(kMicroPnpUdpPort,
                   [this](const Ip6Address& src, const Ip6Address&, uint16_t,
                          const std::vector<uint8_t>& payload) { OnDatagram(src, payload); });
  }

  uint16_t chunk_count() const { return static_cast<uint16_t>(chunks_.size()); }
  uint32_t crc() const { return crc_; }
  int requests_seen() const { return static_cast<int>(requests_.size()); }
  int nacks_seen() const { return nacks_seen_; }
  int chunks_sent() const { return chunks_sent_; }
  const std::vector<DriverRequestPayload>& requests() const { return requests_; }

  // Test hooks: which chunk indices the next request serves, whether NACKs
  // are honoured, how many copies of each chunk go out (duplication), and
  // how long the offer trails its chunks (reordering).
  std::function<std::vector<uint16_t>(const DriverRequestPayload&)> serve_plan;
  bool honour_nacks = false;
  int copies_per_chunk = 1;
  bool reverse_order = false;
  double offer_delay_ms = 0.0;

 private:
  static constexpr size_t kChunkBytes = 56;

  void OnDatagram(const Ip6Address& src, const std::vector<uint8_t>& payload) {
    Result<Message> m = Message::Parse(payload);
    if (!m.ok()) return;
    if (m->type == MessageType::kDriverInstallRequest) {
      const auto* req = m->payload_as<DriverRequestPayload>();
      if (req == nullptr || req->device_id != device_) return;
      requests_.push_back(*req);
      DriverOfferPayload offer{device_, crc_, static_cast<uint32_t>(image_bytes_.size()),
                               kChunkBytes, chunk_count(), 0};
      const std::vector<uint8_t> offer_wire =
          MakeMessage(MessageType::kDriverUploadOffer, m->sequence, offer).Serialize();
      if (offer_delay_ms > 0.0) {
        scheduler_.ScheduleAfter(SimTime::FromMillis(offer_delay_ms), [this, src, offer_wire] {
          node_->SendUdp(src, kMicroPnpUdpPort, offer_wire);
        });
      } else {
        node_->SendUdp(src, kMicroPnpUdpPort, offer_wire);
      }
      std::vector<uint16_t> plan;
      for (uint16_t i = 0; i < chunk_count(); ++i) plan.push_back(i);
      if (serve_plan) plan = serve_plan(*req);
      SendChunks(src, plan);
    } else if (m->type == MessageType::kDriverChunkRequest) {
      ++nacks_seen_;
      const auto* nack = m->payload_as<DriverChunkRequestPayload>();
      if (honour_nacks && nack != nullptr && nack->image_crc == crc_) {
        SendChunks(src, nack->chunk_indices);
      }
    }
  }

  void SendChunks(const Ip6Address& dst, std::vector<uint16_t> indices) {
    if (reverse_order) std::reverse(indices.begin(), indices.end());
    for (uint16_t index : indices) {
      if (index >= chunk_count()) continue;
      DriverChunkPayload chunk{device_, crc_, index, chunk_count(), chunks_[index]};
      const std::vector<uint8_t> wire =
          MakeMessage(MessageType::kDriverChunk, 0, chunk).Serialize();
      for (int copy = 0; copy < copies_per_chunk; ++copy) {
        node_->SendUdp(dst, kMicroPnpUdpPort, wire);
        ++chunks_sent_;
      }
    }
  }

  Scheduler& scheduler_;
  NetNode* node_;
  DeviceTypeId device_;
  std::vector<uint8_t> image_bytes_;
  uint32_t crc_ = 0;
  std::vector<std::vector<uint8_t>> chunks_;
  std::vector<DriverRequestPayload> requests_;
  int nacks_seen_ = 0;
  int chunks_sent_ = 0;
};

TEST(ChunkedTransfer, DuplicatedAndReorderedChunksAssembleOnce) {
  Deployment deployment(SeededConfig(71004));
  MicroPnpThing& thing = deployment.AddThing("thing");
  FakeManager fake(deployment, kTmp36TypeId);
  fake.copies_per_chunk = 2;  // every chunk delivered twice...
  fake.reverse_order = true;  // ...and the whole stream backwards

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(10'000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  EXPECT_GE(thing.duplicate_chunks(), fake.chunk_count());
  EXPECT_EQ(thing.chunks_received(), static_cast<uint64_t>(fake.chunks_sent()));
}

TEST(ChunkedTransfer, ResumeBitmapRequestsOnlyTheGaps) {
  // Shrink the repair timers so budget exhaustion and the (4)-level retry
  // happen within a short simulated window.
  ThingConfig tuning;
  tuning.chunk_nack_delay_ms = 100.0;
  tuning.chunk_nack_max_delay_ms = 200.0;
  tuning.chunk_nack_budget = 2;
  tuning.driver_retry_initial_ms = 500.0;

  Deployment deployment(SeededConfig(71005));
  MicroPnpThing& thing = deployment.AddThing("thing", nullptr, tuning);
  FakeManager fake(deployment, kBmp180TypeId);
  ASSERT_GE(fake.chunk_count(), 4) << "image too small to leave gaps";

  // The first request gets only the even chunks and every NACK is ignored:
  // the Thing's NACK budget runs dry and it falls back to a fresh (4)
  // carrying the resume bitmap, which is served honestly (gaps only).
  int resumed_round_chunks = -1;
  fake.serve_plan = [&](const DriverRequestPayload& req) {
    std::vector<uint16_t> indices;
    if (fake.requests_seen() == 1) {
      EXPECT_EQ(req.cached_crc, 0u);  // nothing held yet
      for (uint16_t i = 0; i < fake.chunk_count(); i += 2) indices.push_back(i);
      return indices;
    }
    EXPECT_EQ(req.cached_crc, fake.crc());
    EXPECT_EQ(req.cached_chunk_count, fake.chunk_count());
    for (uint16_t i = 0; i < fake.chunk_count(); ++i) {
      const bool held = (req.have_bitmap[i / 8] >> (i % 8)) & 1;
      EXPECT_EQ(held, i % 2 == 0) << "bitmap wrong for chunk " << i;
      if (!held) indices.push_back(i);
    }
    if (resumed_round_chunks < 0) resumed_round_chunks = static_cast<int>(indices.size());
    return indices;
  };
  // The BMP180 driver is the largest bundled image: plenty of chunks to
  // leave gaps in.
  Bmp180& sensor = deployment.MakeBmp180();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(15'000);

  ASSERT_GE(fake.requests_seen(), 2);
  EXPECT_GE(fake.nacks_seen(), 1);
  EXPECT_TRUE(thing.drivers().HasDriverFor(kBmp180TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.transfers_completed(), 1u);
  // The resumed round moved only the odd chunks, not the whole image.
  EXPECT_EQ(resumed_round_chunks, fake.chunk_count() / 2);
}

TEST(ChunkedTransfer, ReplugOfCachedDriverTransfersZeroChunks) {
  Deployment deployment(SeededConfig(71006));
  MicroPnpManager& manager = deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);
  ASSERT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  const uint64_t chunks_after_install = manager.chunks_sent();

  // Remove the installed image but keep the transfer cache, then re-plug:
  // the (4) advertises a complete bitmap and the manager answers with an
  // up-to-date offer — zero chunks move.
  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(1000);
  ASSERT_TRUE(thing.drivers().RemoveImage(kTmp36TypeId).ok());
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(manager.chunks_sent(), chunks_after_install);
  EXPECT_EQ(manager.upload_short_circuits(), 1u);
}

// ------------------------------------------------------ plug-flow bugfixes ---

TEST(PlugFlowRecovery, DriverRequestRearmsAfterLinkHeals) {
  // Regression: a (4) that exhausted its deadline used to abandon the
  // channel forever.  Now it re-arms with capped backoff and completes once
  // the link heals.
  ThingConfig tuning;
  tuning.driver_request_deadline_ms = 1000.0;
  tuning.driver_request_retransmits = 2;
  tuning.driver_request_backoff_ms = 200.0;
  tuning.driver_retry_initial_ms = 500.0;
  tuning.driver_retry_max_ms = 2000.0;

  DeploymentConfig config;
  config.seed = 71007;
  config.link = LinkWithLoss(1.0);
  Deployment deployment(config);
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing", nullptr, tuning);

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);
  EXPECT_GE(thing.driver_requests_failed(), 1u);
  EXPECT_FALSE(thing.drivers().HasDriverFor(kTmp36TypeId));

  deployment.fabric().set_link(LinkWithLoss(0.0));
  deployment.RunForMillis(10'000);
  EXPECT_TRUE(thing.drivers().HasDriverFor(kTmp36TypeId));
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_GE(thing.driver_request_retries(), 1u);
}

TEST(PlugFlowRecovery, GroupMembershipSurvivesUnplugOfDuplicateType) {
  // Regression: unplugging one of two same-type peripherals used to leave
  // the shared multicast group, cutting off the remaining channel.
  Deployment deployment(SeededConfig(71008));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& first = deployment.MakeTmp36();
  Tmp36& second = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &first).ok());
  ASSERT_TRUE(thing.Plug(1, &second).ok());
  deployment.RunForMillis(5000);
  const Ip6Address group = PeripheralGroup(thing.node().prefix(), kTmp36TypeId);
  ASSERT_TRUE(thing.node().InGroup(group));

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(1000);
  EXPECT_TRUE(thing.node().InGroup(group)) << "left group while channel 1 still serves the type";

  // The surviving channel still answers reads.
  std::optional<WireValue> value;
  client.Read(thing.node().address(), kTmp36TypeId,
              [&](Result<WireValue> result) {
                ASSERT_TRUE(result.ok()) << result.status().ToString();
                value = *result;
              });
  deployment.RunForMillis(1000);
  EXPECT_TRUE(value.has_value());

  // Unplugging the last one of the type finally leaves the group.
  ASSERT_TRUE(thing.Unplug(1).ok());
  deployment.RunForMillis(1000);
  EXPECT_FALSE(thing.node().InGroup(group));
}

TEST(PlugFlowRecovery, UnplugWhileStreamingClosesTheStream) {
  // Regression: unplug used to flip the stream off silently; clients kept a
  // dead subscription.  Now the Thing multicasts (15) on teardown.
  Deployment deployment(SeededConfig(71009));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  int values = 0;
  bool closed = false;
  client.StartStream(thing.node().address(), kTmp36TypeId, /*period_ms=*/500,
                     [&](const WireValue&) { ++values; }, [&] { closed = true; });
  deployment.RunForMillis(3000);
  ASSERT_GE(values, 2);
  ASSERT_FALSE(closed);

  ASSERT_TRUE(thing.Unplug(0).ok());
  deployment.RunForMillis(2000);
  EXPECT_TRUE(closed) << "client never learned the stream died";
}

TEST(PlugFlowRecovery, DuplicateStopStreamCompletesIdempotently) {
  // Regression: a StopStream for an already-closed stream used to go
  // unanswered, so the requester always ate the full deadline.
  Deployment deployment(SeededConfig(71010));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  MicroPnpClient& client = deployment.AddClient("client");

  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(5000);

  client.StartStream(thing.node().address(), kTmp36TypeId, 500, [](const WireValue&) {});
  deployment.RunForMillis(2000);

  client.StopStream(thing.node().address(), kTmp36TypeId);
  deployment.RunForMillis(3000);
  client.StopStream(thing.node().address(), kTmp36TypeId);  // stream already gone
  deployment.RunForMillis(3000);

  // Both stops completed on a (15) answer, not by timing out.
  EXPECT_EQ(client.endpoint().counters().deadline_exceeded, 0u);
}

TEST(PlugFlowRecovery, LateOfferAfterChunkInstallActivatesOnce) {
  // Regression: an (18) that trails its chunks reaches the Thing after the
  // image was installed from the chunks alone, while that install's
  // activation is still pending.  Both paths used to schedule an activation
  // for the channel; the second failed with already_exists.  The widened
  // activation time puts the offer inside that window deterministically.
  ThingConfig tuning;
  tuning.install_activate_cpu_ms = 3000.0;
  tuning.readvertise_min_ms = 0.0;  // count only the plug's own (1)

  Deployment deployment(SeededConfig(71011));
  MicroPnpThing& thing = deployment.AddThing("thing", nullptr, tuning);
  MicroPnpClient& client = deployment.AddClient("client");
  FakeManager fake(deployment, kTmp36TypeId);
  fake.offer_delay_ms = 1000.0;

  testing::internal::CaptureStderr();
  Tmp36& sensor = deployment.MakeTmp36();
  ASSERT_TRUE(thing.Plug(0, &sensor).ok());
  deployment.RunForMillis(1500);
  // The offer has arrived; the image is installed but not yet activated.
  const bool installed_before_activation =
      thing.drivers().HasDriverFor(kTmp36TypeId) && thing.drivers().HostForChannel(0) == nullptr;
  deployment.RunForMillis(8500);
  const std::string log = testing::internal::GetCapturedStderr();

  EXPECT_TRUE(installed_before_activation);
  EXPECT_NE(thing.drivers().HostForChannel(0), nullptr);
  EXPECT_EQ(thing.drivers().installs(), 1u);
  EXPECT_EQ(log.find("activation failed"), std::string::npos) << log;
  EXPECT_EQ(thing.advertisements_sent(), 1u);
  EXPECT_EQ(client.advertisements_seen(), 1u);
}

TEST(PlugFlowRecovery, RetransmittedWriteIsAppliedOnce) {
  // Regression: a Thing applied every copy of a retransmitted (16).  A copy
  // sent because its (17) was lost ran the write handler again, and a copy
  // arriving after a newer write rolled the relay back to the older value.
  Deployment deployment(SeededConfig(71012));
  deployment.AddManager();
  MicroPnpThing& thing = deployment.AddThing("thing");
  Relay& relay = deployment.MakeRelay();
  ASSERT_TRUE(thing.Plug(0, &relay).ok());
  deployment.RunForMillis(5000);
  ASSERT_NE(thing.drivers().HostForChannel(0), nullptr);

  // A bare node plays the client, so the test decides which copies exist.
  NetNode* writer = deployment.AddRelayNode("writer");
  std::vector<std::pair<SequenceNumber, uint8_t>> acks;
  writer->BindUdp(kMicroPnpUdpPort, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                                        const std::vector<uint8_t>& payload) {
    Result<Message> m = Message::Parse(payload);
    ASSERT_TRUE(m.ok());
    ASSERT_EQ(m->type, MessageType::kWriteAck);
    acks.emplace_back(m->sequence, m->payload_as<StatusAckPayload>()->status);
  });
  auto send_write = [&](SequenceNumber seq, int32_t value) {
    writer->SendUdp(thing.node().address(), kMicroPnpUdpPort,
                    MakeMessage(MessageType::kWrite, seq, WritePayload{kRelayTypeId, value})
                        .Serialize());
    deployment.RunForMillis(1000);
  };

  send_write(7, 1);
  send_write(7, 1);  // the retransmission after a lost (17)
  EXPECT_EQ(thing.writes_served(), 1u);
  EXPECT_TRUE(relay.closed());
  EXPECT_EQ(relay.switch_count(), 1u);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], acks[1]);
  EXPECT_EQ(acks[0].second, 0);  // applied

  // A late copy of write 7 behind the newer write 8 is acknowledged only.
  send_write(8, 0);
  send_write(7, 1);
  EXPECT_EQ(thing.writes_served(), 2u);
  EXPECT_FALSE(relay.closed());
  EXPECT_EQ(relay.switch_count(), 2u);
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks[3], acks[0]);

  // Past the dedup window the same (source, sequence) is a new write: the
  // client's sequence space has wrapped.
  deployment.RunForMillis(MicroPnpThing::kWriteDedupWindowMs);
  send_write(7, 1);
  EXPECT_EQ(thing.writes_served(), 3u);
  EXPECT_TRUE(relay.closed());
  EXPECT_EQ(acks.size(), 5u);
}

}  // namespace
}  // namespace micropnp
