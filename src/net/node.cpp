#include "net/node.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace hipcloud::net {

namespace {

/// Does `addr` fall inside prefix/prefix_len? Families must match.
bool prefix_match(const IpAddr& addr, const IpAddr& prefix, int prefix_len) {
  if (addr.is_v4() != prefix.is_v4()) return false;
  if (prefix_len == 0) return true;
  if (addr.is_v4()) {
    const std::uint32_t mask =
        prefix_len >= 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
    return (addr.v4().value() & mask) == (prefix.v4().value() & mask);
  }
  const auto& a = addr.v6().bytes();
  const auto& p = prefix.v6().bytes();
  int bits = prefix_len;
  for (int i = 0; i < 16 && bits > 0; ++i, bits -= 8) {
    if (bits >= 8) {
      if (a[i] != p[i]) return false;
    } else {
      const std::uint8_t mask = static_cast<std::uint8_t>(0xff << (8 - bits));
      return (a[i] & mask) == (p[i] & mask);
    }
  }
  return true;
}

/// Releases the payload of a packet a send path will not carry on, so
/// its block is back in the buffer pool before the caller goes on.
void discard(Packet& pkt) { pkt.payload = crypto::Buffer(); }

}  // namespace

Node::Node(Network& net, std::string name, double cpu_cycles_per_second)
    : net_(net), name_(std::move(name)),
      cpu_(net.loop(), cpu_cycles_per_second) {}

std::size_t Node::attach_link(Link* link) {
  ifaces_.push_back(Interface{link, {}});
  return ifaces_.size() - 1;
}

void Node::add_address(std::size_t iface, const IpAddr& addr) {
  ifaces_.at(iface).addrs.push_back(addr);
  for (const auto& fn : addr_observers_) fn(addr, iface, true);
}

void Node::remove_address(std::size_t iface, const IpAddr& addr) {
  auto& addrs = ifaces_.at(iface).addrs;
  const auto before = addrs.size();
  std::erase(addrs, addr);
  if (addrs.size() != before) {
    for (const auto& fn : addr_observers_) fn(addr, iface, false);
  }
}

void Node::remove_routes_via(std::size_t iface) {
  std::erase_if(routes_,
                [iface](const Route& r) { return r.iface == iface; });
}

void Node::remove_route(const IpAddr& prefix, int prefix_len) {
  std::erase_if(routes_, [&](const Route& r) {
    return r.prefix == prefix && r.prefix_len == prefix_len;
  });
}

bool Node::owns_address(const IpAddr& addr) const {
  for (const auto& iface : ifaces_) {
    if (std::find(iface.addrs.begin(), iface.addrs.end(), addr) !=
        iface.addrs.end()) {
      return true;
    }
  }
  return false;
}

std::optional<IpAddr> Node::first_address(bool v6) const {
  for (const auto& iface : ifaces_) {
    for (const auto& addr : iface.addrs) {
      if (addr.is_v6() == v6) return addr;
    }
  }
  return std::nullopt;
}

std::optional<IpAddr> Node::select_source(const IpAddr& dst) const {
  std::optional<IpAddr> family_fallback;
  for (const auto& iface : ifaces_) {
    for (const auto& addr : iface.addrs) {
      if (addr.is_v4() != dst.is_v4()) continue;
      const bool kind_match = addr.is_hit() == dst.is_hit() &&
                              addr.is_lsi() == dst.is_lsi() &&
                              addr.is_teredo() == dst.is_teredo();
      if (kind_match) return addr;
      if (!family_fallback && !addr.is_hit() && !addr.is_lsi()) {
        family_fallback = addr;
      }
    }
  }
  return family_fallback;
}

void Node::add_route(const IpAddr& prefix, int prefix_len, std::size_t iface,
                     std::optional<IpAddr> gateway) {
  routes_.push_back(Route{prefix, prefix_len, iface, std::move(gateway)});
  // Longest prefix first so lookup can take the first match.
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const Route& x, const Route& y) {
                     return x.prefix_len > y.prefix_len;
                   });
}

void Node::set_default_route(std::size_t iface, std::optional<IpAddr> gateway) {
  add_route(IpAddr(Ipv4Addr(0u)), 0, iface, gateway);
  add_route(IpAddr(Ipv6Addr()), 0, iface, std::move(gateway));
}

const Node::Route* Node::lookup_route(const IpAddr& dst) const {
  for (const auto& route : routes_) {
    if (prefix_match(dst, route.prefix, route.prefix_len)) return &route;
  }
  return nullptr;
}

void Node::register_protocol(IpProto proto, ProtoHandler handler) {
  proto_handlers_[proto] = std::move(handler);
}

void Node::add_shim(std::shared_ptr<L3Shim> shim) {
  shims_.push_back(std::move(shim));
}

std::size_t Node::path_overhead(const IpAddr& dst) const {
  std::size_t total = 0;
  for (const auto& shim : shims_) total += shim->path_overhead(dst);
  return total;
}

// hipcheck:hot
void Node::send(Packet&& pkt) {
  if (down_) return discard(pkt);
  for (const auto& shim : shims_) {
    if (shim->outbound(pkt)) return discard(pkt);  // consumed; shim re-injects
  }
  send_raw(std::move(pkt));
}

// hipcheck:hot
void Node::send_raw(Packet&& pkt) {
  if (down_) return discard(pkt);
  // Loopback: packets to our own address short-circuit through the stack
  // with no wire cost (matches OS loopback behaviour).
  if (owns_address(pkt.dst)) {
    net_.loop().schedule(0, [this, p = std::move(pkt)]() mutable {
      local_deliver(std::move(p));
    });
    return;
  }
  const Route* route = lookup_route(pkt.dst);
  if (route == nullptr || ifaces_[route->iface].link == nullptr) {
    ++dropped_no_route_;
    HIPCLOUD_LOG(sim::LogLevel::kDebug, net_.loop().now(), name_.c_str(),
                 "no route to " + pkt.dst.to_string());
    return discard(pkt);
  }
  ++sent_packets_;
  ifaces_[route->iface].link->transmit(std::move(pkt), this);
}

// hipcheck:hot
void Node::deliver(Packet&& pkt, std::size_t in_iface) {
  if (down_) return;  // crashed: in-flight packets vanish
  if (owns_address(pkt.dst)) {
    local_deliver(std::move(pkt));
    return;
  }
  // Not ours: forward if we are a router/middlebox.
  if (!forwarding_) {
    HIPCLOUD_LOG(sim::LogLevel::kDebug, net_.loop().now(), name_.c_str(),
                 "not for us, not forwarding: " + pkt.describe());
    return;
  }
  if (pkt.ttl == 0) return;
  pkt.ttl--;
  if (forward_hook_ && !forward_hook_(pkt, in_iface)) return;
  // The hook may have rewritten dst to one of our own addresses
  // (e.g. NAT inbound translation targeting a local service).
  if (owns_address(pkt.dst)) {
    local_deliver(std::move(pkt));
    return;
  }
  const Route* route = lookup_route(pkt.dst);
  if (route == nullptr || ifaces_[route->iface].link == nullptr) {
    ++dropped_no_route_;
    return;
  }
  ++forwarded_packets_;
  ifaces_[route->iface].link->transmit(std::move(pkt), this);
}

void Node::local_deliver(Packet&& pkt) {
  if (down_) return;
  ++received_packets_;
  ++net_.loop().perf().packets_delivered;
  for (const auto& shim : shims_) {
    if (shim->inbound(pkt)) return;
  }
  const auto it = proto_handlers_.find(pkt.proto);
  if (it == proto_handlers_.end()) {
    HIPCLOUD_LOG(sim::LogLevel::kDebug, net_.loop().now(), name_.c_str(),
                 "no handler for proto " +
                     std::to_string(static_cast<int>(pkt.proto)));
    return;
  }
  it->second(std::move(pkt));
}

Network::Network(std::uint64_t seed) : rng_(seed) {
  pool_.set_perf(&loop_.perf());
}

Node* Network::add_node(std::string name, double cpu_cycles_per_second) {
  nodes_.push_back(
      std::make_unique<Node>(*this, std::move(name), cpu_cycles_per_second));
  return nodes_.back().get();
}

Network::Attachment Network::connect(Node* a, Node* b,
                                     const LinkConfig& config) {
  links_.push_back(std::make_unique<Link>(*this, a, b, config));
  Link* link = links_.back().get();
  const Attachment att{link, a->attach_link(link), b->attach_link(link)};
  link->set_interfaces(att.iface_a, att.iface_b);
  return att;
}

Node* Network::find(const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node->name() == name) return node.get();
  }
  return nullptr;
}

}  // namespace hipcloud::net
