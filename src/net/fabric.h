// Simulated 6LoWPAN/RPL network fabric (Section 6 "Implementation").
//
// The paper's stack is IPv6 over 6LoWPAN on 802.15.4 radios, with RPL
// providing a DODAG (tree) for routing and SMRF forwarding multicast down
// that tree.  The fabric reproduces the pieces the μPnP protocol exercises:
//
//  * nodes arranged in a tree rooted at a border router (the RPL DODAG);
//  * UDP datagrams fragmented per 6LoWPAN and timed at 250 kbit/s per hop
//    with CSMA jitter and per-node stack-processing costs;
//  * unicast routed along the tree (RPL storing mode);
//  * multicast via SMRF: packets travel up to the root, then down only into
//    subtrees containing group members — plus a classic-flooding mode used
//    by the A2 ablation.  Each node keeps per-group forwarding state (its
//    subtree's member count and the children whose subtree holds a
//    member), updated on join/leave, so a send costs O(depth + member
//    subtree);
//  * anycast delivered to the nearest node bound to the anycast address;
//  * optional per-link loss for the unreliable-network experiments the
//    paper defers to future work (Section 9).
//
// Per-frame transmissions are counted globally and per delivery, which is
// what the SMRF-vs-flooding ablation measures.
//
// Threading model.  The fabric is the one component the parallel runtime
// cannot shard outright: any node may send to any other node.  It is split
// into three classes of state:
//
//  * Immutable-after-setup: the node tree (parent/children/depth), the
//    address index, link model and profiles.  Built single-threaded before
//    workers start; read lock-free afterwards.
//  * Per-shard RouteContext: the RNG stream and the routing scratch buffers.
//    Routing always runs on the *sending* node's shard, using that shard's
//    context, so the hot path stays allocation- and lock-free.  In the
//    non-sharded (single-threaded) build there is exactly one context,
//    seeded as before, which preserves the historical RNG draw order bit
//    for bit.
//  * Shared mutable: multicast/anycast membership and the SMRF forwarding
//    records (guarded by a shared_mutex: Join/Leave update the records on
//    the path to the root under the exclusive lock, descents read them
//    under the shared one) and the global frame counters (relaxed atomics).
//    Forwarding lists stay in children() order, so an SMRF descent draws
//    from the route context's RNG in the same order as a filtered scan of
//    the children would.
//
// Delivery crossing shards is not a direct Scheduler call: the sender
// computes the absolute due time and hands the delivery closure to the
// destination shard's MPSC inbox (Shard::PostAt).  The link model gives
// every cross-node delivery a latency of at least tx processing + CSMA
// backoff + airtime + rx processing, which is the lookahead that makes the
// conservative quantum scheme in ShardedRuntime sound; see
// MinCrossShardLatencyMs().

#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/ip6.h"
#include "src/net/multicast_schema.h"
#include "src/sim/scheduler.h"

namespace micropnp {

class Shard;

// 802.15.4 / 6LoWPAN link model.
struct LinkModel {
  double bitrate_bps = 250e3;           // 802.15.4 in the 2.4 GHz band
  size_t mac_overhead_bytes = 23;       // frame header + FCS + PHY preamble
  size_t compressed_header_bytes = 10;  // 6LoWPAN IPHC IPv6+UDP header
  size_t fragment_payload_bytes = 88;   // usable payload per fragment
  double csma_min_ms = 0.3;             // backoff jitter per frame
  double csma_max_ms = 1.7;
  double loss_rate = 0.0;               // per-frame loss probability

  // Number of 6LoWPAN fragments for a UDP payload.
  size_t FragmentsFor(size_t payload_bytes) const;
  // Airtime of all fragments of one datagram across one hop (no jitter).
  double AirtimeMs(size_t payload_bytes) const;
};

// Per-node stack costs.  The embedded profile models Contiki on an 8-bit
// ATMega128RFA1 (slow serialization + 6LoWPAN compression); the server
// profile models the μPnP Manager host.
struct NodeProfile {
  double tx_processing_ms = 21.0;   // build + compress + enqueue a datagram
  double rx_processing_ms = 13.5;   // reassemble + decompress + deliver
  double forward_processing_ms = 2.0;  // per intermediate hop
  double jitter_fraction = 0.04;    // +/- uniform on processing costs

  static NodeProfile Embedded() { return NodeProfile{}; }
  static NodeProfile Server() { return NodeProfile{0.4, 0.3, 0.2, 0.02}; }
};

enum class MulticastMode {
  kSmrf,      // up to the DODAG root, then down member subtrees only
  kFlooding,  // every node rebroadcasts once (classic flooding baseline)
};

class Fabric;

class NetNode {
 public:
  using UdpHandler =
      std::function<void(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                         const std::vector<uint8_t>& payload)>;

  const std::string& name() const { return name_; }
  const Ip6Address& address() const { return unicast_; }
  NetworkPrefix48 prefix() const { return PrefixOf(unicast_); }
  const NodeProfile& profile() const { return profile_; }

  // UDP port binding (one handler per port).
  void BindUdp(uint16_t port, UdpHandler handler) { handlers_[port] = std::move(handler); }

  // Sends a datagram into the fabric (unicast, multicast, or anycast).
  void SendUdp(const Ip6Address& dst, uint16_t port, const std::vector<uint8_t>& payload);

  // Multicast group membership (MLD-lite: membership propagates up the tree
  // so SMRF can prune).
  void JoinGroup(const Ip6Address& group);
  void LeaveGroup(const Ip6Address& group);
  bool InGroup(const Ip6Address& group) const;
  size_t group_count() const;

  // Anycast service binding (the μPnP Manager address, Section 5).
  void BindAnycast(const Ip6Address& anycast);

  NetNode* parent() { return parent_; }
  const std::vector<NetNode*>& children() const { return children_; }
  int depth() const { return depth_; }

  // SMRF forwarding state for `group` (read-only views for tests and
  // tooling): the children whose subtree holds a member, in children()
  // order, and the number of groups this node keeps a record for.
  std::vector<NetNode*> ForwardingChildren(const Ip6Address& group) const;
  size_t forwarding_group_count() const;

  // Shard owning this node in the parallel runtime (0 when not sharded).
  // All of the node's handlers and timers run on that shard's scheduler.
  uint32_t shard() const { return shard_; }

  uint64_t datagrams_sent() const { return datagrams_sent_; }
  uint64_t datagrams_received() const { return datagrams_received_; }

 private:
  friend class Fabric;
  NetNode(Fabric& fabric, std::string name, Ip6Address unicast, NodeProfile profile,
          NetNode* parent, uint32_t shard);

  void Deliver(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
               const std::vector<uint8_t>& payload);

  Fabric& fabric_;
  std::string name_;
  Ip6Address unicast_;
  NodeProfile profile_;
  NetNode* parent_;
  std::vector<NetNode*> children_;
  int depth_ = 0;
  uint32_t shard_ = 0;
  // Position in parent_->children_: orders the SMRF forwarding lists.
  size_t child_index_ = 0;
  std::unordered_map<uint16_t, UdpHandler> handlers_;
  // groups_ / forwarding_ are guarded by Fabric::membership_mutex_ (written
  // by the owner shard, read by any routing shard during SMRF descent).
  std::unordered_set<Ip6Address> groups_;
  // SMRF forwarding record of one group: members in this node's subtree
  // (itself included) and the children whose subtree holds one, kept in
  // children_ order.  A record exists only while subtree_members > 0.
  struct Forwarding {
    int subtree_members = 0;
    std::vector<NetNode*> member_children;
  };
  std::unordered_map<Ip6Address, Forwarding> forwarding_;
  // Owner-shard-only counters: bumped on the node's own shard (send from the
  // owner, delivery closures run on the owner), so no atomics needed.
  uint64_t datagrams_sent_ = 0;
  uint64_t datagrams_received_ = 0;
};

class Fabric {
 public:
  Fabric(Scheduler& scheduler, uint64_t seed, const LinkModel& link = LinkModel{});

  // Creates a node.  parent == nullptr makes a DODAG root (border router).
  // `shard` pins the node to a runtime shard (ignored until EnableSharding).
  NetNode* CreateNode(const std::string& name, const Ip6Address& unicast,
                      const NodeProfile& profile, NetNode* parent, uint32_t shard = 0);

  Scheduler& scheduler() { return scheduler_; }
  const LinkModel& link() const { return link_; }
  void set_link(const LinkModel& link) { link_ = link; }

  MulticastMode multicast_mode() const { return multicast_mode_; }
  void set_multicast_mode(MulticastMode mode) { multicast_mode_ = mode; }

  // Switches delivery to the sharded runtime: each node's delivery closures
  // are scheduled on (or posted to) its owning shard, and routing uses the
  // calling shard's RouteContext.  Must be called after the topology is
  // built and before workers start; shards[i] must be shard id i.
  void EnableSharding(const std::vector<Shard*>& shards);
  bool sharded() const { return !shards_.empty(); }

  // Lower bound on the simulated latency of any delivery between two
  // distinct nodes under the current link model: the conservative lookahead
  // for the parallel runtime's quantum.
  double MinCrossShardLatencyMs() const;

  // --- statistics -----------------------------------------------------------
  uint64_t frames_transmitted() const {
    return frames_transmitted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_lost() const { return frames_lost_.load(std::memory_order_relaxed); }
  uint64_t multicast_frames() const {
    return multicast_frames_.load(std::memory_order_relaxed);
  }
  void ResetStats();

  // Hop distance along the tree between two nodes.
  int HopDistance(const NetNode& a, const NetNode& b) const;

  // One link-layer traversal (exposed for the path-building helper).
  struct Transfer {
    NetNode* from;
    NetNode* to;
  };

 private:
  friend class NetNode;

  struct Descent {
    NetNode* node;
    double latency;
  };

  // Everything the routing hot path mutates, bundled per shard so routing
  // never takes a lock.  The scratch buffers are reused across calls:
  // routing runs at gateway datagram rates, and Route never re-enters
  // (delivery happens later, from scheduler callbacks), so per-datagram
  // path vectors would be pure allocator churn.  `in_route` backs a debug
  // assertion that the single-owner reuse contract actually holds.
  struct RouteContext {
    explicit RouteContext(uint64_t seed) : rng(seed) {}
    Rng rng;
    std::vector<NetNode*> path_scratch;
    std::vector<NetNode*> down_scratch;
    std::vector<Transfer> hops_scratch;
    std::vector<Transfer> single_hop;
    std::vector<Descent> mcast_queue;
    bool in_route = false;
  };

  // Debug-asserts that no other Route call is live on this context for the
  // duration of the guard (the scratch-buffer reentrancy contract).
  class ScratchGuard {
   public:
    explicit ScratchGuard(RouteContext& ctx);
    ~ScratchGuard();
    ScratchGuard(const ScratchGuard&) = delete;
    ScratchGuard& operator=(const ScratchGuard&) = delete;

   private:
    RouteContext& ctx_;
  };

  // The context for the calling thread: the base context when not sharded,
  // otherwise the current shard's context (falling back to the source
  // node's shard for main-thread sends before workers start).
  RouteContext& ContextFor(const NetNode& src);

  // Schedules `deliver` to run after `latency_ms` on dst's owning shard
  // (plain ScheduleAfter when not sharded; MPSC hand-off when the sender
  // runs on a different shard).
  void ScheduleDelivery(NetNode& dst, double latency_ms, std::function<void()> deliver);

  void Route(NetNode& src, const Ip6Address& dst, uint16_t port,
             const std::vector<uint8_t>& payload);
  void RouteUnicast(RouteContext& ctx, NetNode& src, NetNode& dst, const Ip6Address& dst_addr,
                    uint16_t port, const std::vector<uint8_t>& payload);
  void RouteMulticast(RouteContext& ctx, NetNode& src, const Ip6Address& group, uint16_t port,
                      const std::vector<uint8_t>& payload);
  // Caller must hold membership_mutex_ exclusively.
  void UpdateSubtreeMembershipLocked(NetNode& node, const Ip6Address& group, int delta);

  // Path along the tree (exclusive of src, inclusive of dst), built by a
  // depth-lockstep walk to the lowest common ancestor into ctx's scratch.
  const std::vector<NetNode*>& TreePath(RouteContext& ctx, NetNode& src, NetNode& dst);
  // Per-link transfers along `path`, starting from `src` (scratch-backed).
  const std::vector<Transfer>& BuildTransfers(RouteContext& ctx,
                                              const std::vector<NetNode*>& path, NetNode* src);
  // Simulates the hop-by-hop delivery delay, counting frames; returns the
  // total latency or nullopt if a frame was lost.
  std::optional<double> SimulateHops(RouteContext& ctx, const std::vector<Transfer>& hops,
                                     size_t payload_bytes, bool multicast);

  Scheduler& scheduler_;
  LinkModel link_;
  MulticastMode multicast_mode_ = MulticastMode::kSmrf;
  std::vector<std::unique_ptr<NetNode>> nodes_;
  // O(1) unicast destination lookup (the seed scanned nodes_ linearly, which
  // made every datagram O(N) at fleet scale).  Immutable once workers start.
  std::unordered_map<Ip6Address, NetNode*> nodes_by_address_;
  std::unordered_map<Ip6Address, std::vector<NetNode*>> anycast_bindings_;

  // Guards groups_/forwarding_ on every node plus anycast_bindings_.
  mutable std::shared_mutex membership_mutex_;

  // Single-threaded routing context; carries the fabric's historical RNG
  // stream so non-sharded runs are bit-identical to the pre-sharding code.
  RouteContext base_context_;
  // One context per shard, created by EnableSharding.
  std::vector<Shard*> shards_;
  std::vector<std::unique_ptr<RouteContext>> shard_contexts_;

  std::atomic<uint64_t> frames_transmitted_{0};
  std::atomic<uint64_t> frames_lost_{0};
  std::atomic<uint64_t> multicast_frames_{0};
};

}  // namespace micropnp

#endif  // SRC_NET_FABRIC_H_
