#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/cpu.hpp"
#include "sim/random.hpp"

namespace hipcloud::net {

class Network;

/// Layer-3.5 shim hook — the interposition point HIP uses. Outbound
/// packets pass through every shim before routing; a shim that returns
/// true has consumed the packet (it will re-inject transformed traffic
/// itself). Inbound works symmetrically before protocol demux.
class L3Shim {
 public:
  virtual ~L3Shim() = default;

  /// Outbound interception; called with the original (inner) packet.
  virtual bool outbound(Packet& pkt) = 0;

  /// Inbound interception; called before protocol handlers.
  virtual bool inbound(Packet& pkt) = 0;

  /// Extra per-packet bytes the shim will add on the path to `dst`
  /// (0 when the shim does not apply). TCP subtracts this from its MSS.
  virtual std::size_t path_overhead(const IpAddr& dst) const = 0;
};

/// A host, router, middlebox or VM in the simulated network.
///
/// Composition over inheritance: behaviour is attached via protocol
/// handlers, shims and the forward hook rather than subclassing, so a
/// node can be turned into a NAT, a router or a HIP host dynamically —
/// mirroring how the paper deploys HIP incrementally onto existing VMs.
class Node {
 public:
  using ProtoHandler = std::function<void(Packet&&)>;
  /// Return false to drop instead of forwarding; may rewrite the packet.
  using ForwardHook = std::function<bool(Packet&, std::size_t in_iface)>;

  /// Observer for address add/remove on link-backed or virtual
  /// interfaces. HIP subscribes to this to detect "the VM just got a new
  /// locator" (migration landed) and kick off the UPDATE readdressing
  /// exchange without the test having to call move_to() by hand.
  using AddressChangeFn =
      std::function<void(const IpAddr& addr, std::size_t iface, bool added)>;

  Node(Network& net, std::string name, double cpu_cycles_per_second);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  Network& network() { return net_; }
  sim::CpuScheduler& cpu() { return cpu_; }

  /// --- interfaces & addressing -------------------------------------
  std::size_t attach_link(Link* link);
  void add_address(std::size_t iface, const IpAddr& addr);
  /// Remove one address from an interface (no-op when absent).
  void remove_address(std::size_t iface, const IpAddr& addr);
  /// Drop all routes through an interface (used when a link goes down,
  /// e.g. the source side of a VM migration).
  void remove_routes_via(std::size_t iface);
  /// Drop routes matching exactly this prefix/length.
  void remove_route(const IpAddr& prefix, int prefix_len);
  bool owns_address(const IpAddr& addr) const;
  /// First address of the given family on any interface.
  std::optional<IpAddr> first_address(bool v6) const;
  /// Source-address selection for a destination: same family, and the
  /// same "kind" (HIT, LSI, Teredo or plain) when available, so HIT->HIT
  /// flows naturally carry HIT sources.
  std::optional<IpAddr> select_source(const IpAddr& dst) const;
  /// Create an address-only virtual interface (no link) — used for HITs,
  /// LSIs and Teredo addresses.
  std::size_t add_virtual_interface() { return attach_link(nullptr); }
  std::size_t interface_count() const { return ifaces_.size(); }
  Link* link_at(std::size_t iface) const { return ifaces_[iface].link; }

  void on_address_change(AddressChangeFn fn) {
    addr_observers_.push_back(std::move(fn));
  }

  /// --- fault injection -------------------------------------------------
  /// A crashed node loses everything in flight: sends are dropped on the
  /// floor and deliveries are discarded before any handler or shim runs.
  /// Restarting (set_down(false)) keeps addresses, routes and protocol
  /// state — the transport/HIP layers above decide what survived.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// --- routing -------------------------------------------------------
  /// Longest-prefix-match table. `prefix_len` counts bits; v4 and v6
  /// routes live in the same table but only match their own family.
  void add_route(const IpAddr& prefix, int prefix_len, std::size_t iface,
                 std::optional<IpAddr> gateway = std::nullopt);
  void set_default_route(std::size_t iface,
                         std::optional<IpAddr> gateway = std::nullopt);
  void set_forwarding(bool enabled) { forwarding_ = enabled; }

  /// --- data path -------------------------------------------------------
  /// Both send paths consume `pkt`: it moves on down the stack, or its
  /// payload is released before they return.
  /// Send a locally-originated packet (runs shims, then routes).
  void send(Packet&& pkt);
  /// Route and transmit without shim processing (used by shims to emit
  /// their transformed packets).
  void send_raw(Packet&& pkt);
  /// Called by Link on packet arrival.
  void deliver(Packet&& pkt, std::size_t in_iface);

  /// --- extension points ------------------------------------------------
  void register_protocol(IpProto proto, ProtoHandler handler);
  void add_shim(std::shared_ptr<L3Shim> shim);
  void set_forward_hook(ForwardHook hook) { forward_hook_ = std::move(hook); }

  /// Total extra bytes all shims would add towards `dst`.
  std::size_t path_overhead(const IpAddr& dst) const;

  /// --- counters ---------------------------------------------------------
  std::uint64_t sent_packets() const { return sent_packets_; }
  std::uint64_t received_packets() const { return received_packets_; }
  std::uint64_t forwarded_packets() const { return forwarded_packets_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  struct Interface {
    Link* link = nullptr;
    std::vector<IpAddr> addrs;
  };
  struct Route {
    IpAddr prefix;
    int prefix_len;
    std::size_t iface;
    std::optional<IpAddr> gateway;
  };

  const Route* lookup_route(const IpAddr& dst) const;
  void local_deliver(Packet&& pkt);

  Network& net_;
  std::string name_;
  sim::CpuScheduler cpu_;
  std::vector<Interface> ifaces_;
  std::vector<Route> routes_;
  std::map<IpProto, ProtoHandler> proto_handlers_;
  std::vector<std::shared_ptr<L3Shim>> shims_;
  ForwardHook forward_hook_;
  std::vector<AddressChangeFn> addr_observers_;
  bool forwarding_ = false;
  bool down_ = false;
  std::uint64_t sent_packets_ = 0;
  std::uint64_t received_packets_ = 0;
  std::uint64_t forwarded_packets_ = 0;
  std::uint64_t dropped_no_route_ = 0;
};

/// The simulated world: owns the event loop, nodes, links and the
/// deterministic RNG used for loss decisions.
class Network {
 public:
  explicit Network(std::uint64_t seed = 1);

  sim::EventLoop& loop() { return loop_; }
  sim::Xoshiro256& rng() { return rng_; }
  /// Per-world payload buffer pool used by the packet pipeline.
  crypto::BufferPool& buffer_pool() { return pool_; }
  /// Per-world perf counters (owned by the event loop).
  sim::PerfCounters& perf() { return loop_.perf(); }

  /// Create a node. `cpu_cycles_per_second` sizes its CpuScheduler;
  /// infrastructure nodes default to a fast core so they never bottleneck.
  Node* add_node(std::string name, double cpu_cycles_per_second = 100e9);

  /// Connect two nodes; returns the link and the interface indices
  /// assigned on each side.
  struct Attachment {
    Link* link;
    std::size_t iface_a;
    std::size_t iface_b;
  };
  Attachment connect(Node* a, Node* b, const LinkConfig& config);

  Node* find(const std::string& name) const;

 private:
  // Declared before the loop: pending events may hold pooled payload
  // buffers whose destructors return blocks to the pool, so the pool must
  // be destroyed after the loop (members destruct in reverse order).
  crypto::BufferPool pool_;
  sim::EventLoop loop_;
  sim::Xoshiro256 rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace hipcloud::net
