#include "src/net/fabric.h"

#include <algorithm>
#include <cassert>
#include <mutex>

#include "src/common/logging.h"
#include "src/rt/shard.h"

namespace micropnp {

// ------------------------------------------------------------- LinkModel ---

size_t LinkModel::FragmentsFor(size_t payload_bytes) const {
  const size_t total = payload_bytes + compressed_header_bytes;
  return (total + fragment_payload_bytes - 1) / fragment_payload_bytes;
}

double LinkModel::AirtimeMs(size_t payload_bytes) const {
  const size_t fragments = FragmentsFor(payload_bytes);
  const size_t total = payload_bytes + compressed_header_bytes;
  const size_t on_air_bytes = total + fragments * mac_overhead_bytes;
  return static_cast<double>(on_air_bytes) * 8.0 / bitrate_bps * 1e3;
}

// --------------------------------------------------------------- NetNode ---

NetNode::NetNode(Fabric& fabric, std::string name, Ip6Address unicast, NodeProfile profile,
                 NetNode* parent, uint32_t shard)
    : fabric_(fabric),
      name_(std::move(name)),
      unicast_(unicast),
      profile_(profile),
      parent_(parent),
      shard_(shard) {
  if (parent != nullptr) {
    child_index_ = parent->children_.size();
    parent->children_.push_back(this);
    depth_ = parent->depth_ + 1;
  }
}

void NetNode::SendUdp(const Ip6Address& dst, uint16_t port, const std::vector<uint8_t>& payload) {
  ++datagrams_sent_;
  fabric_.Route(*this, dst, port, payload);
}

void NetNode::JoinGroup(const Ip6Address& group) {
  std::unique_lock lock(fabric_.membership_mutex_);
  if (groups_.insert(group).second) {
    fabric_.UpdateSubtreeMembershipLocked(*this, group, +1);
  }
}

void NetNode::LeaveGroup(const Ip6Address& group) {
  std::unique_lock lock(fabric_.membership_mutex_);
  if (groups_.erase(group) != 0) {
    fabric_.UpdateSubtreeMembershipLocked(*this, group, -1);
  }
}

bool NetNode::InGroup(const Ip6Address& group) const {
  std::shared_lock lock(fabric_.membership_mutex_);
  return groups_.count(group) != 0;
}

size_t NetNode::group_count() const {
  std::shared_lock lock(fabric_.membership_mutex_);
  return groups_.size();
}

std::vector<NetNode*> NetNode::ForwardingChildren(const Ip6Address& group) const {
  std::shared_lock lock(fabric_.membership_mutex_);
  auto it = forwarding_.find(group);
  return it == forwarding_.end() ? std::vector<NetNode*>{} : it->second.member_children;
}

size_t NetNode::forwarding_group_count() const {
  std::shared_lock lock(fabric_.membership_mutex_);
  return forwarding_.size();
}

void NetNode::BindAnycast(const Ip6Address& anycast) {
  std::unique_lock lock(fabric_.membership_mutex_);
  fabric_.anycast_bindings_[anycast].push_back(this);
}

void NetNode::Deliver(const Ip6Address& src, const Ip6Address& dst, uint16_t port,
                      const std::vector<uint8_t>& payload) {
  ++datagrams_received_;
  auto it = handlers_.find(port);
  if (it != handlers_.end() && it->second) {
    it->second(src, dst, port, payload);
  }
}

// ---------------------------------------------------------------- Fabric ---

Fabric::Fabric(Scheduler& scheduler, uint64_t seed, const LinkModel& link)
    : scheduler_(scheduler), link_(link), base_context_(seed) {}

NetNode* Fabric::CreateNode(const std::string& name, const Ip6Address& unicast,
                            const NodeProfile& profile, NetNode* parent, uint32_t shard) {
  nodes_.push_back(
      std::unique_ptr<NetNode>(new NetNode(*this, name, unicast, profile, parent, shard)));
  nodes_by_address_[unicast] = nodes_.back().get();
  return nodes_.back().get();
}

void Fabric::EnableSharding(const std::vector<Shard*>& shards) {
  shards_ = shards;
  shard_contexts_.clear();
  shard_contexts_.reserve(shards.size());
  for (Shard* shard : shards) {
    // Seed each shard's routing stream from the shard's own stream, keeping
    // the scenario seed the single source of randomness.
    shard_contexts_.push_back(std::make_unique<RouteContext>(shard->rng().NextU64()));
  }
}

double Fabric::MinCrossShardLatencyMs() const {
  // Every delivery between distinct nodes pays at least: sender stack
  // processing + one CSMA backoff + one-hop airtime of the smallest
  // datagram + receiver stack processing, each at the lower end of its
  // jitter band.  (The src == dst fast path is same-node, hence same-shard,
  // so it does not bound the lookahead.)
  double min_tx = NodeProfile::Embedded().tx_processing_ms;
  double min_rx = NodeProfile::Embedded().rx_processing_ms;
  bool any = false;
  for (const auto& node : nodes_) {
    const NodeProfile& p = node->profile();
    const double tx = p.tx_processing_ms * (1.0 - p.jitter_fraction);
    const double rx = p.rx_processing_ms * (1.0 - p.jitter_fraction);
    if (!any || tx < min_tx) {
      min_tx = tx;
    }
    if (!any || rx < min_rx) {
      min_rx = rx;
    }
    any = true;
  }
  if (!any) {
    const NodeProfile server = NodeProfile::Server();
    min_tx = server.tx_processing_ms * (1.0 - server.jitter_fraction);
    min_rx = server.rx_processing_ms * (1.0 - server.jitter_fraction);
  }
  return min_tx + link_.csma_min_ms + link_.AirtimeMs(0) + min_rx;
}

void Fabric::ResetStats() {
  frames_transmitted_.store(0, std::memory_order_relaxed);
  frames_lost_.store(0, std::memory_order_relaxed);
  multicast_frames_.store(0, std::memory_order_relaxed);
}

int Fabric::HopDistance(const NetNode& a, const NetNode& b) const {
  // Walk both up to equal depth, then in lockstep to the common ancestor.
  const NetNode* pa = &a;
  const NetNode* pb = &b;
  int hops = 0;
  while (pa->depth() > pb->depth()) {
    pa = pa->parent_;
    ++hops;
  }
  while (pb->depth() > pa->depth()) {
    pb = pb->parent_;
    ++hops;
  }
  while (pa != pb) {
    pa = pa->parent_;
    pb = pb->parent_;
    hops += 2;
  }
  return hops;
}

Fabric::ScratchGuard::ScratchGuard(RouteContext& ctx) : ctx_(ctx) {
  assert(!ctx_.in_route && "Fabric routing re-entered on the same context: "
                           "the scratch buffers are single-owner");
  ctx_.in_route = true;
}

Fabric::ScratchGuard::~ScratchGuard() { ctx_.in_route = false; }

Fabric::RouteContext& Fabric::ContextFor(const NetNode& src) {
  if (shards_.empty()) {
    return base_context_;
  }
  if (Shard* current = Shard::Current()) {
    return *shard_contexts_[current->id()];
  }
  // Main-thread send before workers start (bring-up): use the source node's
  // shard context — no worker is running, so it is free.
  return *shard_contexts_[src.shard()];
}

void Fabric::ScheduleDelivery(NetNode& dst, double latency_ms, std::function<void()> deliver) {
  if (shards_.empty()) {
    scheduler_.ScheduleAfter(SimTime::FromMillis(latency_ms), std::move(deliver));
    return;
  }
  Shard* current = Shard::Current();
  Shard* owner = shards_[dst.shard()];
  const SimTime now =
      current != nullptr ? current->scheduler().now() : owner->scheduler().now();
  const uint64_t due_ns = now.nanos() + SimTime::FromMillis(latency_ms).nanos();
  if (current != nullptr && current != owner) {
    // Cross-shard: hand off through the owner's inbox.  A full inbox drops
    // the datagram, which the protocol treats like any lost frame.
    owner->PostAt(due_ns, std::move(deliver));
    return;
  }
  owner->scheduler().ScheduleAt(SimTime::FromNanos(due_ns), std::move(deliver));
}

const std::vector<Fabric::Transfer>& Fabric::BuildTransfers(RouteContext& ctx,
                                                            const std::vector<NetNode*>& path,
                                                            NetNode* src) {
  ctx.hops_scratch.clear();
  NetNode* prev = src;
  for (NetNode* next : path) {
    ctx.hops_scratch.push_back({prev, next});
    prev = next;
  }
  return ctx.hops_scratch;
}

const std::vector<NetNode*>& Fabric::TreePath(RouteContext& ctx, NetNode& src, NetNode& dst) {
  // Depth-lockstep walk to the lowest common ancestor: O(depth) with no
  // chain materialization or membership scans.  path_scratch accumulates
  // the up segment (src's ancestors through the common node, exclusive of
  // src); down_scratch accumulates the down segment (dst up to, exclusive
  // of, the common node) which is appended in reverse.
  ctx.path_scratch.clear();
  ctx.down_scratch.clear();
  NetNode* a = &src;
  NetNode* b = &dst;
  while (a->depth() > b->depth()) {
    a = a->parent();
    ctx.path_scratch.push_back(a);
  }
  while (b->depth() > a->depth()) {
    ctx.down_scratch.push_back(b);
    b = b->parent();
  }
  while (a != b) {
    if (a->parent() == nullptr || b->parent() == nullptr) {
      ctx.path_scratch.clear();  // disjoint trees: unroutable
      return ctx.path_scratch;
    }
    a = a->parent();
    ctx.path_scratch.push_back(a);
    ctx.down_scratch.push_back(b);
    b = b->parent();
  }
  ctx.path_scratch.insert(ctx.path_scratch.end(), ctx.down_scratch.rbegin(),
                          ctx.down_scratch.rend());
  return ctx.path_scratch;
}

std::optional<double> Fabric::SimulateHops(RouteContext& ctx, const std::vector<Transfer>& hops,
                                           size_t payload_bytes, bool multicast) {
  double total_ms = 0.0;
  const size_t fragments = link_.FragmentsFor(payload_bytes);
  for (size_t h = 0; h < hops.size(); ++h) {
    // CSMA backoff + airtime per fragment.
    for (size_t f = 0; f < fragments; ++f) {
      frames_transmitted_.fetch_add(1, std::memory_order_relaxed);
      if (multicast) {
        multicast_frames_.fetch_add(1, std::memory_order_relaxed);
      }
      total_ms += ctx.rng.Uniform(link_.csma_min_ms, link_.csma_max_ms);
      if (link_.loss_rate > 0.0 && ctx.rng.Bernoulli(link_.loss_rate)) {
        frames_lost_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // datagram lost (no link-layer retransmission)
      }
    }
    total_ms += link_.AirtimeMs(payload_bytes);
    // Intermediate nodes forward without full stack traversal.
    if (h + 1 < hops.size()) {
      const NodeProfile& p = hops[h].to->profile();
      total_ms += p.forward_processing_ms *
                  (1.0 + p.jitter_fraction * ctx.rng.Uniform(-1.0, 1.0));
    }
  }
  return total_ms;
}

void Fabric::Route(NetNode& src, const Ip6Address& dst, uint16_t port,
                   const std::vector<uint8_t>& payload) {
  RouteContext& ctx = ContextFor(src);
  ScratchGuard guard(ctx);
  if (dst.IsMulticast()) {
    RouteMulticast(ctx, src, dst, port, payload);
    return;
  }
  // Anycast: deliver to the nearest bound node (Section 5: "the µPnP manager
  // is assigned an anycast IPv6 address to allow for network-level
  // redundancy and scalability").
  NetNode* anycast_nearest = nullptr;
  {
    std::shared_lock lock(membership_mutex_);
    auto anycast = anycast_bindings_.find(dst);
    if (anycast != anycast_bindings_.end() && !anycast->second.empty()) {
      anycast_nearest = anycast->second.front();
      int best = HopDistance(src, *anycast_nearest);
      for (NetNode* candidate : anycast->second) {
        const int d = HopDistance(src, *candidate);
        if (d < best) {
          best = d;
          anycast_nearest = candidate;
        }
      }
    }
  }
  if (anycast_nearest != nullptr) {
    RouteUnicast(ctx, src, *anycast_nearest, dst, port, payload);
    return;
  }
  // Plain unicast.
  auto node = nodes_by_address_.find(dst);
  if (node != nodes_by_address_.end()) {
    RouteUnicast(ctx, src, *node->second, dst, port, payload);
    return;
  }
  MLOG(kDebug, "net") << "no route to " << dst.ToString();
}

void Fabric::RouteUnicast(RouteContext& ctx, NetNode& src, NetNode& dst,
                          const Ip6Address& dst_addr, uint16_t port,
                          const std::vector<uint8_t>& payload) {
  if (&src == &dst) {
    ScheduleDelivery(dst, 0.05, [&dst, src_addr = src.address(), dst_addr, port, payload] {
      dst.Deliver(src_addr, dst_addr, port, payload);
    });
    return;
  }
  const std::vector<NetNode*>& path = TreePath(ctx, src, dst);
  if (path.empty()) {
    return;
  }
  const std::vector<Transfer>& hops = BuildTransfers(ctx, path, &src);
  // Sender-side stack processing.
  double latency = src.profile().tx_processing_ms *
                   (1.0 + src.profile().jitter_fraction * ctx.rng.Uniform(-1.0, 1.0));
  std::optional<double> wire = SimulateHops(ctx, hops, payload.size(), /*multicast=*/false);
  if (!wire.has_value()) {
    return;  // lost
  }
  latency += *wire;
  latency += dst.profile().rx_processing_ms *
             (1.0 + dst.profile().jitter_fraction * ctx.rng.Uniform(-1.0, 1.0));
  ScheduleDelivery(dst, latency, [&dst, src_addr = src.address(), dst_addr, port, payload] {
    dst.Deliver(src_addr, dst_addr, port, payload);
  });
}

void Fabric::UpdateSubtreeMembershipLocked(NetNode& node, const Ip6Address& group, int delta) {
  // Propagate membership up the tree (the DAO-style state SMRF piggybacks
  // on RPL for).  A node's subtree count changes on every ancestor, but a
  // parent's forwarding list changes only where the child's count crosses
  // 0 <-> 1; above the first node that does not cross, only counts move.
  NetNode* child = nullptr;
  bool child_crossed = false;
  for (NetNode* current = &node; current != nullptr;
       child = current, current = current->parent()) {
    NetNode::Forwarding& record = current->forwarding_[group];
    if (child_crossed) {
      std::vector<NetNode*>& list = record.member_children;
      auto at = std::lower_bound(list.begin(), list.end(), child,
                                 [](const NetNode* a, const NetNode* b) {
                                   return a->child_index_ < b->child_index_;
                                 });
      if (delta > 0) {
        list.insert(at, child);
      } else {
        assert(at != list.end() && *at == child);
        list.erase(at);
      }
    }
    const int before = record.subtree_members;
    record.subtree_members += delta;
    child_crossed = (before == 0) != (record.subtree_members == 0);
    if (record.subtree_members <= 0) {
      assert(record.member_children.empty());
      current->forwarding_.erase(group);
    }
  }
}

void Fabric::RouteMulticast(RouteContext& ctx, NetNode& src, const Ip6Address& group,
                            uint16_t port, const std::vector<uint8_t>& payload) {
  // Phase 1: the datagram climbs to the DODAG root.
  NetNode* root = &src;
  ctx.hops_scratch.clear();
  while (root->parent() != nullptr) {
    ctx.hops_scratch.push_back({root, root->parent()});
    root = root->parent();
  }

  const double tx = src.profile().tx_processing_ms *
                    (1.0 + src.profile().jitter_fraction * ctx.rng.Uniform(-1.0, 1.0));
  std::optional<double> climb =
      SimulateHops(ctx, ctx.hops_scratch, payload.size(), /*multicast=*/true);
  if (!climb.has_value()) {
    return;
  }
  double base_latency = tx + *climb;

  // Phase 2: distribute down the tree.  Membership is read under the shared
  // lock for the whole descent; delivery closures are scheduled after it is
  // released so owner-shard handlers never run under the lock.
  struct PendingDelivery {
    NetNode* dst;
    double latency;
  };
  std::vector<PendingDelivery> deliveries;
  {
    std::shared_lock lock(membership_mutex_);
    ctx.mcast_queue.clear();
    ctx.mcast_queue.push_back({root, base_latency});
    while (!ctx.mcast_queue.empty()) {
      Descent current = ctx.mcast_queue.back();
      ctx.mcast_queue.pop_back();

      // Deliver locally if this node is a member (the source also receives
      // its own group traffic if subscribed, except we suppress the
      // loopback).
      if (current.node != &src && current.node->groups_.count(group) != 0) {
        NetNode* dst = current.node;
        const double rx = dst->profile().rx_processing_ms *
                          (1.0 + dst->profile().jitter_fraction * ctx.rng.Uniform(-1.0, 1.0));
        deliveries.push_back({dst, current.latency + rx});
      }

      // Forward into child subtrees: every child when flooding, otherwise
      // only the children on the node's SMRF forwarding list.  The list is
      // in children() order, so SMRF draws from ctx.rng in the same order a
      // filtered scan of children() would.
      const std::vector<NetNode*>* next = &current.node->children();
      if (multicast_mode_ == MulticastMode::kSmrf) {
        auto record = current.node->forwarding_.find(group);
        if (record == current.node->forwarding_.end()) {
          continue;
        }
        next = &record->second.member_children;
      }
      for (NetNode* child : *next) {
        ctx.single_hop.assign(1, Transfer{current.node, child});
        std::optional<double> wire =
            SimulateHops(ctx, ctx.single_hop, payload.size(), /*multicast=*/true);
        if (!wire.has_value()) {
          continue;  // lost on this branch only
        }
        double forward_cost = current.node->profile().forward_processing_ms *
                              (1.0 + current.node->profile().jitter_fraction *
                                         ctx.rng.Uniform(-1.0, 1.0));
        if (current.node == &src) {
          forward_cost = 0.0;
        }
        ctx.mcast_queue.push_back({child, current.latency + *wire + forward_cost});
      }
    }
  }
  for (PendingDelivery& pending : deliveries) {
    NetNode* dst = pending.dst;
    ScheduleDelivery(*dst, pending.latency,
                     [dst, src_addr = src.address(), group, port, payload] {
                       dst->Deliver(src_addr, group, port, payload);
                     });
  }
}

}  // namespace micropnp
