#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace hipcloud::net {

class Node;
class Network;

/// Full-duplex point-to-point link parameters.
struct LinkConfig {
  /// Bits per second each direction can carry.
  double bandwidth_bps = 1e9;
  /// One-way propagation delay.
  sim::Duration latency = sim::from_micros(50);
  /// Tail-drop threshold expressed as maximum queueing delay: a packet
  /// whose transmission could not start within this bound is dropped.
  sim::Duration max_queue_delay = sim::from_millis(50);
  /// Independent random loss probability per packet (0 disables).
  double loss_rate = 0.0;
  /// Maximum transmission unit in bytes; oversized packets are dropped
  /// (the stack sizes TCP MSS / UDP payloads to respect this).
  std::size_t mtu = 1500;
};

/// A link between two nodes. Each direction models serialization delay
/// (wire_size/bandwidth), propagation latency, and a bounded queue.
class Link {
 public:
  Link(Network& net, Node* a, Node* b, const LinkConfig& config);
  virtual ~Link() = default;

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Transmit a packet from `from` towards the opposite endpoint. The
  /// link consumes `pkt` either way: it moves on towards the receiver, or
  /// its payload is released here. Returns false when the packet was
  /// dropped (queue overflow, loss or MTU violation).
  bool transmit(Packet&& pkt, const Node* from);

  /// Record the interface index this link occupies on each endpoint, so
  /// a delivery hands the packet to the right interface without
  /// searching. Network::connect and ShardedWorld::connect_cross call it
  /// once, right after attaching.
  void set_interfaces(std::size_t iface_a, std::size_t iface_b) {
    backward_.to_iface = iface_a;
    forward_.to_iface = iface_b;
  }

  Node* peer_of(const Node* node) const;
  const LinkConfig& config() const { return config_; }

  /// An administratively-down link drops everything (migration source,
  /// failure injection).
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Fault overlay (driven by sim::FaultInjector): additional random
  /// loss layered on top of the configured loss for the duration of a
  /// fault window. It resets to 0 on revert and never touches config_,
  /// so reverting restores the exact pre-fault behaviour.
  void set_fault_loss(double rate) { fault_loss_ = rate; }
  double fault_loss() const { return fault_loss_; }

  std::uint64_t delivered_packets() const { return delivered_; }
  std::uint64_t dropped_packets() const { return dropped_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }

 protected:
  /// Delivery hook: transmit() has done loss/queue/serialization and
  /// computed the arrival instant; this schedules the actual handoff to
  /// `to` on its interface `to_iface`. The base implementation schedules
  /// into this world's own loop.
  /// Cross-shard half-links override it to post the delivery into the
  /// destination shard's future through the shard coordinator — every
  /// other physics stays identical, and all of it runs on the sending
  /// shard's thread against the sending shard's rng/counters.
  virtual void schedule_delivery(sim::Time arrival, Node* to,
                                 std::size_t to_iface, Packet&& pkt);

  Network& network() { return net_; }

 private:
  struct Direction {
    Node* to = nullptr;
    std::size_t to_iface = 0;  // this link's interface index on `to`
    sim::Time busy_until = 0;
  };

  Direction& direction_from(const Node* from);
  bool drop(Packet& pkt);

  Network& net_;
  LinkConfig config_;
  Direction forward_;   // a -> b
  Direction backward_;  // b -> a
  Node* a_;
  Node* b_;
  bool down_ = false;
  double fault_loss_ = 0.0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t delivered_bytes_ = 0;
};

}  // namespace hipcloud::net
