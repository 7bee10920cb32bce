#include "src/net/fabric.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "src/common/logging.h"

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
                 NetNode* parent)
    : fabric_(fabric),
      name_(std::move(name)),
      unicast_(unicast),
      profile_(profile),
      parent_(parent) {
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
  if (groups_.insert(group).second) {
    fabric_.UpdateSubtreeMembership(*this, group, +1);
  }
}

void NetNode::LeaveGroup(const Ip6Address& group) {
  if (groups_.erase(group) != 0) {
    fabric_.UpdateSubtreeMembership(*this, group, -1);
  }
}

bool NetNode::InGroup(const Ip6Address& group) const { return groups_.count(group) != 0; }

size_t NetNode::group_count() const { return groups_.size(); }

std::vector<NetNode*> NetNode::ForwardingChildren(const Ip6Address& group) const {
  auto it = forwarding_.find(group);
  return it == forwarding_.end() ? std::vector<NetNode*>{} : it->second.member_children;
}

size_t NetNode::forwarding_group_count() const { return forwarding_.size(); }

void NetNode::BindAnycast(const Ip6Address& anycast) {
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
    : scheduler_(scheduler), link_(link), context_(seed) {}

NetNode* Fabric::CreateNode(const std::string& name, const Ip6Address& unicast,
                            const NodeProfile& profile, NetNode* parent) {
  nodes_.push_back(std::unique_ptr<NetNode>(new NetNode(*this, name, unicast, profile, parent)));
  nodes_by_address_[unicast] = nodes_.back().get();
  return nodes_.back().get();
}

void Fabric::ResetStats() {
  frames_transmitted_ = 0;
  frames_lost_ = 0;
  multicast_frames_ = 0;
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
  assert(!ctx_.in_route && "Fabric routing re-entered: the scratch buffers are single-owner");
  ctx_.in_route = true;
}

Fabric::ScratchGuard::~ScratchGuard() { ctx_.in_route = false; }

const std::vector<Fabric::Transfer>& Fabric::BuildTransfers(const std::vector<NetNode*>& path,
                                                            NetNode* src) {
  context_.hops_scratch.clear();
  NetNode* prev = src;
  for (NetNode* next : path) {
    context_.hops_scratch.push_back({prev, next});
    prev = next;
  }
  return context_.hops_scratch;
}

const std::vector<NetNode*>& Fabric::TreePath(NetNode& src, NetNode& dst) {
  // Depth-lockstep walk to the lowest common ancestor: O(depth) with no
  // chain materialization or membership scans.  path_scratch accumulates
  // the up segment (src's ancestors through the common node, exclusive of
  // src); down_scratch accumulates the down segment (dst up to, exclusive
  // of, the common node) which is appended in reverse.
  context_.path_scratch.clear();
  context_.down_scratch.clear();
  NetNode* a = &src;
  NetNode* b = &dst;
  while (a->depth() > b->depth()) {
    a = a->parent();
    context_.path_scratch.push_back(a);
  }
  while (b->depth() > a->depth()) {
    context_.down_scratch.push_back(b);
    b = b->parent();
  }
  while (a != b) {
    if (a->parent() == nullptr || b->parent() == nullptr) {
      context_.path_scratch.clear();  // disjoint trees: unroutable
      return context_.path_scratch;
    }
    a = a->parent();
    context_.path_scratch.push_back(a);
    context_.down_scratch.push_back(b);
    b = b->parent();
  }
  context_.path_scratch.insert(context_.path_scratch.end(), context_.down_scratch.rbegin(),
                          context_.down_scratch.rend());
  return context_.path_scratch;
}

std::optional<double> Fabric::SimulateHops(const std::vector<Transfer>& hops,
                                           size_t payload_bytes, bool multicast) {
  double total_ms = 0.0;
  const size_t fragments = link_.FragmentsFor(payload_bytes);
  for (size_t h = 0; h < hops.size(); ++h) {
    // CSMA backoff + airtime per fragment.
    for (size_t f = 0; f < fragments; ++f) {
      ++frames_transmitted_;
      if (multicast) {
        ++multicast_frames_;
      }
      total_ms += context_.rng.Uniform(link_.csma_min_ms, link_.csma_max_ms);
      if (link_.loss_rate > 0.0 && context_.rng.Bernoulli(link_.loss_rate)) {
        ++frames_lost_;
        return std::nullopt;  // datagram lost (no link-layer retransmission)
      }
    }
    total_ms += link_.AirtimeMs(payload_bytes);
    // Intermediate nodes forward without full stack traversal.
    if (h + 1 < hops.size()) {
      const NodeProfile& p = hops[h].to->profile();
      total_ms += p.forward_processing_ms *
                  (1.0 + p.jitter_fraction * context_.rng.Uniform(-1.0, 1.0));
    }
  }
  return total_ms;
}

void Fabric::ScheduleDelivery(Send& send, NetNode& to, double latency_ms) {
  if (send.packet == kNoPacket) {
    if (free_packets_.empty()) {
      send.packet = static_cast<uint32_t>(packets_.size());
      packets_.emplace_back();
    } else {
      send.packet = free_packets_.back();
      free_packets_.pop_back();
    }
    Packet& packet = packets_[send.packet];
    packet.src = send.src.address();
    packet.dst = send.dst;
    packet.port = send.port;
    packet.bytes.assign(send.payload.begin(), send.payload.end());
  }
  ++packets_[send.packet].refs;
  auto deliver = [node = &to, slot = send.packet] { node->fabric_.DeliverPacket(*node, slot); };
  // Small and trivially copyable, so std::function stores it inline.
  static_assert(sizeof(deliver) <= 16 && std::is_trivially_copyable_v<decltype(deliver)>);
  scheduler_.ScheduleAfter(SimTime::FromMillis(latency_ms), deliver);
}

void Fabric::DeliverPacket(NetNode& to, uint32_t slot) {
  Packet& packet = packets_[slot];
  to.Deliver(packet.src, packet.dst, packet.port, packet.bytes);
  if (--packet.refs == 0) {
    free_packets_.push_back(slot);
    if (free_packets_.size() == packets_.size()) {
      // Drained: give a burst's slots back to the allocator rather than
      // holding them for the rest of the run.
      packets_.clear();
      free_packets_.clear();
    }
  }
}

void Fabric::Route(NetNode& src, const Ip6Address& dst, uint16_t port,
                   const std::vector<uint8_t>& payload) {
  ScratchGuard guard(context_);
  Send send{src, dst, port, payload};
  if (dst.IsMulticast()) {
    RouteMulticast(send);
    return;
  }
  // Anycast: deliver to the nearest bound node (Section 5: "the µPnP manager
  // is assigned an anycast IPv6 address to allow for network-level
  // redundancy and scalability").
  auto anycast = anycast_bindings_.find(dst);
  if (anycast != anycast_bindings_.end() && !anycast->second.empty()) {
    NetNode* nearest = anycast->second.front();
    int best = HopDistance(src, *nearest);
    for (NetNode* candidate : anycast->second) {
      const int d = HopDistance(src, *candidate);
      if (d < best) {
        best = d;
        nearest = candidate;
      }
    }
    RouteUnicast(send, *nearest);
    return;
  }
  // Plain unicast.
  auto node = nodes_by_address_.find(dst);
  if (node != nodes_by_address_.end()) {
    RouteUnicast(send, *node->second);
    return;
  }
  MLOG(kDebug, "net") << "no route to " << dst.ToString();
}

void Fabric::RouteUnicast(Send& send, NetNode& dst) {
  NetNode& src = send.src;
  if (&src == &dst) {
    ScheduleDelivery(send, dst, 0.05);
    return;
  }
  const std::vector<NetNode*>& path = TreePath(src, dst);
  if (path.empty()) {
    return;
  }
  const std::vector<Transfer>& hops = BuildTransfers(path, &src);
  // Sender-side stack processing.
  double latency = src.profile().tx_processing_ms *
                   (1.0 + src.profile().jitter_fraction * context_.rng.Uniform(-1.0, 1.0));
  std::optional<double> wire = SimulateHops(hops, send.payload.size(), /*multicast=*/false);
  if (!wire.has_value()) {
    return;  // lost
  }
  latency += *wire;
  latency += dst.profile().rx_processing_ms *
             (1.0 + dst.profile().jitter_fraction * context_.rng.Uniform(-1.0, 1.0));
  ScheduleDelivery(send, dst, latency);
}

void Fabric::UpdateSubtreeMembership(NetNode& node, const Ip6Address& group, int delta) {
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

void Fabric::RouteMulticast(Send& send) {
  NetNode& src = send.src;
  const Ip6Address& group = send.dst;
  const size_t payload_bytes = send.payload.size();
  // Phase 1: the datagram climbs to the DODAG root.
  NetNode* root = &src;
  context_.hops_scratch.clear();
  while (root->parent() != nullptr) {
    context_.hops_scratch.push_back({root, root->parent()});
    root = root->parent();
  }

  const double tx = src.profile().tx_processing_ms *
                    (1.0 + src.profile().jitter_fraction * context_.rng.Uniform(-1.0, 1.0));
  std::optional<double> climb =
      SimulateHops(context_.hops_scratch, payload_bytes, /*multicast=*/true);
  if (!climb.has_value()) {
    return;
  }
  double base_latency = tx + *climb;

  // Phase 2: distribute down the tree.
  context_.mcast_queue.clear();
  context_.mcast_queue.push_back({root, base_latency});
  while (!context_.mcast_queue.empty()) {
    Descent current = context_.mcast_queue.back();
    context_.mcast_queue.pop_back();

    // Deliver locally if this node is a member (the source also receives
    // its own group traffic if subscribed, except we suppress the
    // loopback).
    if (current.node != &src && current.node->groups_.count(group) != 0) {
      NetNode* dst = current.node;
      const double rx = dst->profile().rx_processing_ms *
                        (1.0 + dst->profile().jitter_fraction * context_.rng.Uniform(-1.0, 1.0));
      ScheduleDelivery(send, *dst, current.latency + rx);
    }

    // Forward into child subtrees: every child when flooding, otherwise
    // only the children on the node's SMRF forwarding list.  The list is
    // in children() order, so SMRF draws from the routing RNG in the same
    // order a filtered scan of children() would.
    const std::vector<NetNode*>* next = &current.node->children();
    if (multicast_mode_ == MulticastMode::kSmrf) {
      auto record = current.node->forwarding_.find(group);
      if (record == current.node->forwarding_.end()) {
        continue;
      }
      next = &record->second.member_children;
    }
    for (NetNode* child : *next) {
      context_.single_hop.assign(1, Transfer{current.node, child});
      std::optional<double> wire =
          SimulateHops(context_.single_hop, payload_bytes, /*multicast=*/true);
      if (!wire.has_value()) {
        continue;  // lost on this branch only
      }
      double forward_cost = current.node->profile().forward_processing_ms *
                            (1.0 + current.node->profile().jitter_fraction *
                                       context_.rng.Uniform(-1.0, 1.0));
      if (current.node == &src) {
        forward_cost = 0.0;
      }
      context_.mcast_queue.push_back({child, current.latency + *wire + forward_cost});
    }
  }
}

}  // namespace micropnp
