// Tests for the network substrate: IPv6 addresses, the μPnP multicast
// schema (Figure 9), and the simulated 6LoWPAN/RPL fabric with SMRF.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/net/ip6.h"
#include "src/net/multicast_schema.h"

namespace micropnp {
namespace {

// ------------------------------------------------------------------ ip6 ----

TEST(Ip6, ParseAndFormatRoundTrip) {
  for (const char* text : {"2001:db8::1", "::", "::1", "ff3e:30:2001:db8::ed3f:ac1",
                           "fe80::1:2:3:4", "1:2:3:4:5:6:7:8"}) {
    std::optional<Ip6Address> addr = Ip6Address::Parse(text);
    ASSERT_TRUE(addr.has_value()) << text;
    EXPECT_EQ(addr->ToString(), text);
  }
}

TEST(Ip6, ParseRejectsMalformed) {
  for (const char* text : {"", ":::", "1:2:3:4:5:6:7:8:9", "g::1", "12345::", "1:2:3:4:5:6:7"}) {
    EXPECT_FALSE(Ip6Address::Parse(text).has_value()) << text;
  }
}

TEST(Ip6, CompressionPicksLongestZeroRun) {
  std::optional<Ip6Address> addr = Ip6Address::Parse("1:0:0:2:0:0:0:3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "1:0:0:2::3");
}

TEST(Ip6, MulticastClassification) {
  EXPECT_TRUE(Ip6Address::Parse("ff3e:30::1")->IsMulticast());
  EXPECT_FALSE(Ip6Address::Parse("2001:db8::1")->IsMulticast());
}

TEST(Ip6, PrefixContains) {
  Ip6Prefix prefix{*Ip6Address::Parse("2001:db8::"), 48};
  EXPECT_TRUE(prefix.Contains(*Ip6Address::Parse("2001:db8::42")));
  EXPECT_TRUE(prefix.Contains(*Ip6Address::Parse("2001:db8:0:1::9")));
  EXPECT_FALSE(prefix.Contains(*Ip6Address::Parse("2001:db9::1")));
}

// --------------------------------------------------------------- schema ----

TEST(MulticastSchema, MatchesFigure9Example) {
  // Figure 10: peripheral 0xed3f0ac1 in 2001:db8::/48 ->
  // ff3e:30:2001:db8::ed3f:ac1.
  const NetworkPrefix48 prefix = PrefixOf(*Ip6Address::Parse("2001:db8::1"));
  Ip6Address group = PeripheralGroup(prefix, 0xed3f0ac1);
  EXPECT_EQ(group.ToString(), "ff3e:30:2001:db8::ed3f:ac1");  // the paper's exact rendering
  EXPECT_EQ(*Ip6Address::Parse("ff3e:30:2001:db8::ed3f:ac1"), group);
}

TEST(MulticastSchema, ReservedGroups) {
  const NetworkPrefix48 prefix = PrefixOf(*Ip6Address::Parse("2001:db8::1"));
  EXPECT_EQ(GroupPeripheral(AllClientsGroup(prefix)), kDeviceTypeAllClients);
  EXPECT_EQ(GroupPeripheral(AllPeripheralsGroup(prefix)), kDeviceTypeAllPeripherals);
}

TEST(MulticastSchema, RoundTripsPeripheralAndPrefix) {
  const NetworkPrefix48 prefix = 0x20010db80000ull;
  Ip6Address group = PeripheralGroup(prefix, 0xad1c0001);
  EXPECT_EQ(GroupPeripheral(group), 0xad1c0001u);
  EXPECT_EQ(GroupPrefix(group), prefix);
  EXPECT_TRUE(group.IsMulticast());
  EXPECT_TRUE(IsMicroPnpGroup(group));
  EXPECT_FALSE(IsMicroPnpGroup(*Ip6Address::Parse("ff02::1")));
}

// --------------------------------------------------------------- fabric ----

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(sched_, 99) {
    root_ = fabric_.CreateNode("root", *Ip6Address::Parse("2001:db8::1"), NodeProfile::Server(),
                               nullptr);
    a_ = fabric_.CreateNode("a", *Ip6Address::Parse("2001:db8::2"), NodeProfile::Embedded(), root_);
    b_ = fabric_.CreateNode("b", *Ip6Address::Parse("2001:db8::3"), NodeProfile::Embedded(), root_);
    c_ = fabric_.CreateNode("c", *Ip6Address::Parse("2001:db8::4"), NodeProfile::Embedded(), a_);
  }

  Scheduler sched_;
  Fabric fabric_;
  NetNode* root_;
  NetNode* a_;
  NetNode* b_;
  NetNode* c_;
};

TEST_F(FabricTest, LinkModelFragmentation) {
  LinkModel link;
  EXPECT_EQ(link.FragmentsFor(10), 1u);    // 10 + 10 header < 88
  EXPECT_EQ(link.FragmentsFor(100), 2u);   // 110 -> 2 fragments
  EXPECT_GT(link.AirtimeMs(100), link.AirtimeMs(10));
  // 20 B payload + 10 B header + 23 B MAC = 53 B at 250 kbit/s ~ 1.7 ms.
  EXPECT_NEAR(link.AirtimeMs(20), 53.0 * 8.0 / 250e3 * 1e3, 1e-9);
}

TEST_F(FabricTest, UnicastDeliversAcrossTree) {
  std::vector<uint8_t> received;
  double arrival_ms = 0;
  b_->BindUdp(6030, [&](const Ip6Address& src, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>& payload) {
    EXPECT_EQ(src, a_->address());
    received = payload;
    arrival_ms = sched_.now().millis();
  });
  a_->SendUdp(b_->address(), 6030, {1, 2, 3});
  sched_.Run();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
  // a -> root -> b: two hops, plus embedded tx and rx processing.
  EXPECT_GT(arrival_ms, 30.0);
  EXPECT_LT(arrival_ms, 60.0);
  EXPECT_EQ(fabric_.frames_transmitted(), 2u);
}

TEST_F(FabricTest, HopDistances) {
  EXPECT_EQ(fabric_.HopDistance(*a_, *root_), 1);
  EXPECT_EQ(fabric_.HopDistance(*a_, *b_), 2);
  EXPECT_EQ(fabric_.HopDistance(*c_, *b_), 3);
  EXPECT_EQ(fabric_.HopDistance(*c_, *c_), 0);
}

TEST_F(FabricTest, MulticastReachesOnlyMembers) {
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x1234);
  b_->JoinGroup(group);
  int b_received = 0, c_received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address& dst, uint16_t,
                        const std::vector<uint8_t>&) {
    EXPECT_EQ(dst, group);
    ++b_received;
  });
  c_->BindUdp(6030,
              [&](const Ip6Address&, const Ip6Address&, uint16_t, const std::vector<uint8_t>&) {
                ++c_received;
              });
  a_->SendUdp(group, 6030, {0xaa});
  sched_.Run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_received, 0);
}

TEST_F(FabricTest, SmrfTransmitsFewerFramesThanFlooding) {
  // Build a wider tree: 3 more leaves under b, members only under a.
  for (int i = 0; i < 3; ++i) {
    std::array<uint8_t, 16> raw = b_->address().bytes();
    raw[15] = static_cast<uint8_t>(0x10 + i);
    fabric_.CreateNode("leaf" + std::to_string(i), Ip6Address(raw), NodeProfile::Embedded(), b_);
  }
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x77);
  c_->JoinGroup(group);  // only c (under a) is a member

  fabric_.set_multicast_mode(MulticastMode::kSmrf);
  fabric_.ResetStats();
  root_->SendUdp(group, 6030, {1});
  sched_.Run();
  const uint64_t smrf_frames = fabric_.frames_transmitted();

  fabric_.set_multicast_mode(MulticastMode::kFlooding);
  fabric_.ResetStats();
  root_->SendUdp(group, 6030, {1});
  sched_.Run();
  const uint64_t flood_frames = fabric_.frames_transmitted();

  EXPECT_LT(smrf_frames, flood_frames);
  EXPECT_EQ(smrf_frames, 2u);   // root->a, a->c
  EXPECT_EQ(flood_frames, 6u);  // every edge
}

TEST_F(FabricTest, AnycastRoutesToNearest) {
  Ip6Address anycast = *Ip6Address::Parse("2001:db8:aaaa::1");
  int at_root = 0, at_c = 0;
  root_->BindAnycast(anycast);
  c_->BindAnycast(anycast);
  root_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                           const std::vector<uint8_t>&) { ++at_root; });
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_c; });
  // From b: root is 1 hop, c is 3 hops -> root wins.
  b_->SendUdp(anycast, 6030, {1});
  // From a: c is 1 hop, root is 1 hop -> first-registered wins ties (root).
  a_->SendUdp(anycast, 6030, {1});
  sched_.Run();
  EXPECT_EQ(at_root, 2);
  EXPECT_EQ(at_c, 0);
}

TEST_F(FabricTest, GroupMembershipPropagatesUpForSmrf) {
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x42);
  c_->JoinGroup(group);
  int received = 0;
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  // Sender in a different subtree: must climb to root then descend via a.
  b_->SendUdp(group, 6030, {9});
  sched_.Run();
  EXPECT_EQ(received, 1);

  c_->LeaveGroup(group);
  b_->SendUdp(group, 6030, {9});
  sched_.Run();
  EXPECT_EQ(received, 1);  // no members left: pruned everywhere
}

TEST_F(FabricTest, LossDropsDatagrams) {
  LinkModel lossy;
  lossy.loss_rate = 1.0;  // every frame dies
  fabric_.set_link(lossy);
  int received = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  a_->SendUdp(b_->address(), 6030, {1});
  sched_.Run();
  EXPECT_EQ(received, 0);
  EXPECT_GT(fabric_.frames_lost(), 0u);
}

TEST_F(FabricTest, ScratchReuseAcrossBackToBackRoutes) {
  // Regression for the routing scratch buffers (RouteContext): the fabric
  // reuses path/descent vectors across Route calls to avoid per-datagram
  // allocation.  A stale-length bug would surface exactly here: a long
  // multi-hop unicast, then a multicast descent, then a short unicast, all
  // from the same context — each must see only its own path.
  int at_b = 0, at_c = 0;
  b_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_b; });
  c_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++at_c; });
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x55);
  b_->JoinGroup(group);

  c_->SendUdp(b_->address(), 6030, {1});  // 3 hops: c -> a -> root -> b
  c_->SendUdp(group, 6030, {2});          // SMRF climb + descend
  a_->SendUdp(c_->address(), 6030, {3});  // 1 hop, shorter than the first path
  sched_.Run();
  EXPECT_EQ(at_b, 2);  // unicast + multicast
  EXPECT_EQ(at_c, 1);

  // Route-from-delivery (reply on receive) is the reentrancy pattern the
  // in_route assert guards: deliveries are scheduled, never inline, so the
  // reply's Route starts with clean scratch rather than clobbering the
  // in-progress descent.
  int replies = 0;
  b_->BindUdp(7001, [&](const Ip6Address& src, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { b_->SendUdp(src, 7002, {0xcc}); });
  c_->BindUdp(7002, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++replies; });
  c_->SendUdp(b_->address(), 7001, {0xaa});
  sched_.Run();
  EXPECT_EQ(replies, 1);
}

TEST_F(FabricTest, SelfSendLoopsBack) {
  int received = 0;
  a_->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>&) { ++received; });
  a_->SendUdp(a_->address(), 6030, {1});
  sched_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fabric_.frames_transmitted(), 0u);  // never hits the radio
}

// ------------------------------------------------------------ packet slab ----

TEST_F(FabricTest, MulticastHoldsOnePacketUntilItsLastDelivery) {
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x61);
  std::vector<NetNode*> members = {a_, b_, c_};
  for (int i = 0; i < 4; ++i) {
    std::array<uint8_t, 16> raw = b_->address().bytes();
    raw[15] = static_cast<uint8_t>(0x20 + i);
    members.push_back(
        fabric_.CreateNode(std::to_string(i), Ip6Address(raw), NodeProfile::Embedded(), b_));
  }
  int delivered = 0;
  for (NetNode* member : members) {
    member->JoinGroup(group);
    member->BindUdp(6030, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                              const std::vector<uint8_t>& payload) {
      EXPECT_EQ(payload, (std::vector<uint8_t>{7, 8, 9}));
      EXPECT_EQ(fabric_.packets_in_flight(), 1u);  // shared, held through this delivery
      ++delivered;
    });
  }
  root_->SendUdp(group, 6030, {7, 8, 9});
  EXPECT_EQ(sched_.pending(), members.size());
  EXPECT_EQ(fabric_.packets_in_flight(), 1u);
  while (sched_.Step()) {
    EXPECT_EQ(fabric_.packets_in_flight(), sched_.empty() ? 0u : 1u);
  }
  EXPECT_EQ(delivered, static_cast<int>(members.size()));

  // A send that reaches no member acquires nothing.
  root_->SendUdp(PeripheralGroup(PrefixOf(root_->address()), 0x62), 6030, {1});
  EXPECT_EQ(fabric_.packets_in_flight(), 0u);
  EXPECT_TRUE(sched_.empty());
}

TEST_F(FabricTest, SendingFromADeliveryLeavesItsOwnBytesIntact) {
  // Growing the slab from inside a delivery must not move the packet being
  // delivered: with a contiguous slab, `payload` would dangle here (a hard
  // failure under AddressSanitizer).
  Ip6Address group = PeripheralGroup(PrefixOf(root_->address()), 0x63);
  c_->JoinGroup(group);
  std::vector<uint8_t> sent(150);
  for (size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  int fan_out = 0;
  b_->BindUdp(7001, [&](const Ip6Address& src, const Ip6Address&, uint16_t,
                        const std::vector<uint8_t>& payload) {
    ASSERT_EQ(payload, sent);
    for (int i = 0; i < 100; ++i) {
      b_->SendUdp(src, 7002, payload);
      b_->SendUdp(group, 7002, payload);
    }
    EXPECT_GE(fabric_.packets_in_flight(), 201u);  // this one, still held, plus 200
    EXPECT_EQ(payload, sent);
  });
  std::vector<NetNode*> receivers = {a_, c_};
  for (NetNode* node : receivers) {
    node->BindUdp(7002, [&](const Ip6Address&, const Ip6Address&, uint16_t,
                            const std::vector<uint8_t>& payload) {
      EXPECT_EQ(payload, sent);
      ++fan_out;
    });
  }
  a_->SendUdp(b_->address(), 7001, sent);
  sched_.Run();
  EXPECT_EQ(fan_out, 200);  // 100 unicast replies to a, 100 group copies to c
  EXPECT_EQ(fabric_.packets_in_flight(), 0u);
}

// ------------------------------------------------- SMRF forwarding state ----

// A random DODAG: node 0 is the root, every later node hangs under a
// uniformly chosen earlier one.
struct RandomTree {
  RandomTree(uint64_t seed, int size) : fabric(sched, seed), rng(seed) {
    for (int i = 0; i < size; ++i) {
      std::array<uint8_t, 16> raw = Ip6Address::Parse("2001:db8::")->bytes();
      raw[15] = static_cast<uint8_t>(i + 1);  // trees stay below 255 nodes
      NetNode* parent = i == 0 ? nullptr : nodes[rng.UniformInt(0, nodes.size() - 1)];
      nodes.push_back(fabric.CreateNode(std::to_string(i), Ip6Address(raw),
                                        NodeProfile::Embedded(), parent));
    }
  }

  // Brute force from group membership alone: does `node`'s subtree hold a
  // member of `group`?
  static bool SubtreeHasMember(NetNode* node, const Ip6Address& group) {
    if (node->InGroup(group)) {
      return true;
    }
    for (NetNode* child : node->children()) {
      if (SubtreeHasMember(child, group)) {
        return true;
      }
    }
    return false;
  }

  Scheduler sched;
  Fabric fabric;
  Rng rng;
  std::vector<NetNode*> nodes;
};

TEST(SmrfForwardingState, MatchesBruteForceUnderChurn) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RandomTree tree(seed, 48);
    const NetworkPrefix48 prefix = PrefixOf(tree.nodes[0]->address());
    const std::vector<Ip6Address> groups = {PeripheralGroup(prefix, 0x10),
                                            PeripheralGroup(prefix, 0x20),
                                            AllClientsGroup(prefix)};
    // Churn is issued from a handful of sources, so the same subtrees keep
    // crossing 0 <-> 1 members (join, leave, re-join).
    std::vector<NetNode*> sources;
    for (int i = 0; i < 12; ++i) {
      sources.push_back(tree.nodes[tree.rng.UniformInt(0, tree.nodes.size() - 1)]);
    }
    auto check = [&](int step) {
      for (NetNode* node : tree.nodes) {
        size_t groups_with_members = 0;
        for (const Ip6Address& group : groups) {
          std::vector<NetNode*> expected;
          for (NetNode* child : node->children()) {
            if (RandomTree::SubtreeHasMember(child, group)) {
              expected.push_back(child);
            }
          }
          ASSERT_EQ(node->ForwardingChildren(group), expected)
              << "seed " << seed << " step " << step << " node " << node->name();
          if (RandomTree::SubtreeHasMember(node, group)) {
            ++groups_with_members;
          }
        }
        ASSERT_EQ(node->forwarding_group_count(), groups_with_members)
            << "seed " << seed << " step " << step << " node " << node->name();
      }
    };
    for (int step = 0; step < 200; ++step) {
      NetNode* node = sources[tree.rng.UniformInt(0, sources.size() - 1)];
      const Ip6Address& group = groups[tree.rng.UniformInt(0, groups.size() - 1)];
      if (node->InGroup(group)) {
        node->LeaveGroup(group);
      } else {
        node->JoinGroup(group);
      }
      check(step);
    }
    // Drain every group: no forwarding record may outlive its members.
    for (NetNode* node : tree.nodes) {
      for (const Ip6Address& group : groups) {
        node->LeaveGroup(group);
      }
    }
    check(-1);
    for (NetNode* node : tree.nodes) {
      EXPECT_EQ(node->forwarding_group_count(), 0u) << node->name();
    }
  }
}

TEST(SmrfForwardingState, DeliveryAndFramesMatchSteinerSubtree) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (MulticastMode mode : {MulticastMode::kSmrf, MulticastMode::kFlooding}) {
      RandomTree tree(seed, 40);
      tree.fabric.set_multicast_mode(mode);
      const Ip6Address group = PeripheralGroup(PrefixOf(tree.nodes[0]->address()), 0x33);
      std::set<NetNode*> members;
      for (int i = 0; i < 6; ++i) {
        NetNode* member = tree.nodes[tree.rng.UniformInt(0, tree.nodes.size() - 1)];
        member->JoinGroup(group);
        members.insert(member);
      }
      std::set<NetNode*> delivered;
      for (NetNode* node : tree.nodes) {
        node->BindUdp(6030, [&delivered, node](const Ip6Address&, const Ip6Address&, uint16_t,
                                               const std::vector<uint8_t>&) {
          EXPECT_TRUE(delivered.insert(node).second) << "duplicate delivery to " << node->name();
        });
      }
      // The Steiner subtree spanning the root and every member: each
      // non-root node on a root-to-member path is one descent edge.
      std::set<NetNode*> steiner;
      for (NetNode* member : members) {
        for (NetNode* n = member; n->parent() != nullptr; n = n->parent()) {
          steiner.insert(n);
        }
      }
      for (int send = 0; send < 4; ++send) {
        NetNode* src = tree.nodes[tree.rng.UniformInt(0, tree.nodes.size() - 1)];
        delivered.clear();
        tree.fabric.ResetStats();
        src->SendUdp(group, 6030, {1});  // one fragment per hop
        tree.sched.Run();

        std::set<NetNode*> expected = members;
        expected.erase(src);  // no loopback to the sender
        EXPECT_EQ(delivered, expected) << "seed " << seed << " send " << send;
        const uint64_t descent = mode == MulticastMode::kSmrf ? steiner.size()
                                                              : tree.nodes.size() - 1;
        EXPECT_EQ(tree.fabric.multicast_frames(),
                  static_cast<uint64_t>(src->depth()) + descent)
            << "seed " << seed << " send " << send;
      }
    }
  }
}

// ------------------------------------------- packet slab at quiescence ----

TEST(PacketSlab, DrainsToZeroAfterMixedLossyTraffic) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomTree tree(seed, 40);
    LinkModel lossy;
    lossy.loss_rate = 0.2;
    tree.fabric.set_link(lossy);
    const Ip6Address group = PeripheralGroup(PrefixOf(tree.nodes[0]->address()), 0x44);
    const Ip6Address anycast = *Ip6Address::Parse("2001:db8:aaaa::1");
    tree.nodes[0]->BindAnycast(anycast);
    tree.nodes[tree.nodes.size() - 1]->BindAnycast(anycast);
    auto pick = [&tree] { return tree.nodes[tree.rng.UniformInt(0, tree.nodes.size() - 1)]; };
    for (int i = 0; i < 10; ++i) {
      pick()->JoinGroup(group);
    }
    uint64_t received = 0;
    for (NetNode* node : tree.nodes) {
      node->BindUdp(6030, [&received](const Ip6Address&, const Ip6Address&, uint16_t,
                                      const std::vector<uint8_t>&) { ++received; });
    }
    size_t peak = 0;
    for (int i = 0; i < 200; ++i) {
      NetNode* src = pick();
      switch (i % 4) {
        case 0:
          src->SendUdp(pick()->address(), 6030, {1, 2});
          break;
        case 1:
          src->SendUdp(group, 6030, std::vector<uint8_t>(120, 3));  // two fragments
          break;
        case 2:
          src->SendUdp(src->address(), 6030, {4});
          break;
        default:
          src->SendUdp(anycast, 6030, {5});
          break;
      }
      peak = std::max(peak, tree.fabric.packets_in_flight());
    }
    tree.sched.Run();
    EXPECT_GT(peak, 1u) << "seed " << seed;
    EXPECT_GT(received, 0u) << "seed " << seed;
    EXPECT_GT(tree.fabric.frames_lost(), 0u) << "seed " << seed;
    EXPECT_EQ(tree.fabric.packets_in_flight(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace micropnp
