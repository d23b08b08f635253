#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "net/node.hpp"
#include "sim/log.hpp"

namespace hipcloud::net {

Link::Link(Network& net, Node* a, Node* b, const LinkConfig& config)
    : net_(net), config_(config), a_(a), b_(b) {
  forward_.to = b;
  backward_.to = a;
}

Node* Link::peer_of(const Node* node) const {
  if (node == a_) return b_;
  if (node == b_) return a_;
  throw std::logic_error("Link::peer_of: node not attached");
}

Link::Direction& Link::direction_from(const Node* from) {
  if (from == a_) return forward_;
  if (from == b_) return backward_;
  throw std::logic_error("Link::transmit: node not attached");
}

// Releases the payload of a packet the link will not carry right here,
// so its block is back in the buffer pool before the sender allocates
// again.
bool Link::drop(Packet& pkt) {
  ++dropped_;
  pkt.payload = crypto::Buffer();
  return false;
}

// hipcheck:hot
bool Link::transmit(Packet&& pkt, const Node* from) {
  auto& loop = net_.loop();
  if (down_) return drop(pkt);
  if (pkt.wire_size() > config_.mtu + 20) {
    // +20: grace for the structured L3 header bookkeeping; anything
    // beyond is a genuine MTU violation by a mis-sized sender.
    HIPCLOUD_LOG(sim::LogLevel::kDebug, loop.now(), "link",
                 "MTU drop " + pkt.describe());
    return drop(pkt);
  }
  const double loss =
      config_.loss_rate + fault_loss_ - config_.loss_rate * fault_loss_;
  if (loss > 0.0 && net_.rng().uniform() < loss) return drop(pkt);
  Direction& dir = direction_from(from);
  const sim::Time now = loop.now();
  const sim::Time start = std::max(now, dir.busy_until);
  if (start - now > config_.max_queue_delay) {
    HIPCLOUD_LOG(sim::LogLevel::kDebug, now, "link",
                 "queue drop " + pkt.describe());
    return drop(pkt);
  }
  const auto serialization = static_cast<sim::Duration>(
      static_cast<double>(pkt.wire_size()) * 8.0 / config_.bandwidth_bps *
      static_cast<double>(sim::kSecond));
  dir.busy_until = start + serialization;
  ++delivered_;
  delivered_bytes_ += pkt.wire_size();

  const sim::Time arrival = dir.busy_until + config_.latency;
  schedule_delivery(arrival, dir.to, dir.to_iface, std::move(pkt));
  return true;
}

void Link::schedule_delivery(sim::Time arrival, Node* to,
                             std::size_t to_iface, Packet&& pkt) {
  net_.loop().schedule_at(arrival,
                          [to, to_iface, p = std::move(pkt)]() mutable {
                            to->deliver(std::move(p), to_iface);
                          });
}

}  // namespace hipcloud::net
