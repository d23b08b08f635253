#include "hip/daemon.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/check.hpp"
#include "sim/log.hpp"

namespace hipcloud::hip {

using crypto::Bytes;
using crypto::BytesView;
using net::IpAddr;
using net::IpProto;
using net::Packet;

namespace {

constexpr std::size_t kMaxPendingPackets = 64;

// GCC 12's inliner fuses the v6 branch with the variant's smaller v4
// alternative and then reports spurious out-of-bounds reads from the
// 16-byte address array (-Warray-bounds / -Wstringop-overread depending
// on optimisation decisions); the access is guarded by is_v4().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overread"
Bytes encode_locator(const IpAddr& addr) {
  Bytes out;
  out.reserve(17);
  if (addr.is_v4()) {
    out.push_back(4);
    crypto::append_be(out, addr.v4().value(), 4);
  } else {
    out.push_back(6);
    out.insert(out.end(), addr.v6().bytes().begin(), addr.v6().bytes().end());
  }
  return out;
}
#pragma GCC diagnostic pop

std::optional<IpAddr> decode_locator(BytesView data) {
  if (data.empty()) return std::nullopt;
  if (data[0] == 4 && data.size() == 5) {
    return IpAddr(net::Ipv4Addr(
        static_cast<std::uint32_t>(crypto::read_be(data, 1, 4))));
  }
  if (data[0] == 6 && data.size() == 17) {
    return IpAddr(net::Ipv6Addr::from_bytes(data.subspan(1)));
  }
  return std::nullopt;
}

/// ESP_INFO: the sender's inbound SPI and the suite it offers or uses.
Bytes encode_esp_info(std::uint32_t spi, EspSuite suite) {
  Bytes out;
  crypto::append_be(out, spi, 4);
  out.push_back(static_cast<std::uint8_t>(suite));
  return out;
}

Bytes encode_puzzle(const Puzzle& puzzle) {
  Bytes out{puzzle.difficulty_k};
  crypto::append_be(out, puzzle.random_i, 8);
  return out;
}

std::optional<Puzzle> decode_puzzle(BytesView data) {
  if (data.size() != 9) return std::nullopt;
  Puzzle puzzle;
  puzzle.difficulty_k = data[0];
  puzzle.random_i = crypto::read_be(data, 1, 8);
  return puzzle;
}

}  // namespace

/// The L3 shim registered on the node: intercepts HIT/LSI destinations.
class HipDaemon::Shim : public net::L3Shim {
 public:
  explicit Shim(HipDaemon* daemon) : daemon_(daemon) {}

  bool outbound(Packet& pkt) override { return daemon_->shim_outbound(pkt); }
  bool inbound(Packet&) override { return false; }

  std::size_t path_overhead(const IpAddr& dst) const override {
    if (!dst.is_hit() && !dst.is_lsi()) return 0;
    std::size_t overhead = esp_overhead(daemon_->config_.esp_suite);
    // Resolve the peer to inspect the locator the tunnel actually uses.
    std::optional<net::Ipv6Addr> peer;
    if (dst.is_hit()) {
      peer = dst.v6();
    } else {
      peer = daemon_->peer_for_lsi(dst.v4());
    }
    if (peer) {
      const HipDaemon& daemon = *daemon_;
      if (const auto* assoc = daemon.find_assoc(*peer)) {
        // LSI destinations make TCP assume a 20-byte IPv4 header, but the
        // ESP packet travels under the locator's family.
        if (dst.is_lsi() && assoc->peer_locator.is_v6()) overhead += 20;
        // Teredo locators add the outer IPv4+UDP+tag encapsulation.
        if (assoc->peer_locator.is_teredo()) overhead += 29;
      }
    }
    return overhead;
  }

 private:
  HipDaemon* daemon_;
};

HipDaemon::HipDaemon(net::Node* node, HostIdentity identity, HipConfig config)
    : node_(node), identity_(std::move(identity)), config_(config),
      drbg_(crypto::HmacDrbg(
          crypto::concat({crypto::to_bytes(node->name()),
                          crypto::BytesView(identity_.hit().bytes().data(),
                                            16)}))),
      dh_(config.dh_group, drbg_) {
  if (config_.puzzle_difficulty > kMaxPuzzleDifficulty) {
    throw std::invalid_argument("HipDaemon: puzzle_difficulty above " +
                                std::to_string(kMaxPuzzleDifficulty));
  }
  puzzle_i_ = crypto::read_be(drbg_.generate(8), 0, 8);

  // Own the HIT and local LSI as virtual addresses.
  const std::size_t hit_iface = node_->add_virtual_interface();
  node_->add_address(hit_iface, identity_.hit());
  node_->add_address(hit_iface, config_.local_lsi);

  node_->add_shim(std::make_shared<Shim>(this));
  node_->register_protocol(IpProto::kEsp, [this](Packet&& pkt) {
    on_esp_packet(std::move(pkt));
  });
  node_->register_protocol(IpProto::kHip, [this](Packet&& pkt) {
    on_hip_packet(std::move(pkt));
  });

  // Locator-change detection: a new routable address on a link-backed
  // interface means the host moved (e.g. a migration landed) — announce
  // it to every established peer via the UPDATE exchange. Deferred one
  // event so the caller finishes installing routes for the new address
  // before the UPDATE tries to leave through them.
  node_->on_address_change(
      [this](const IpAddr& addr, std::size_t iface, bool added) {
        if (!added || addr.is_hit() || addr.is_lsi()) return;
        if (node_->link_at(iface) == nullptr) return;  // virtual iface
        const bool scheduled = readdress_pending_.has_value();
        readdress_pending_ = addr;
        if (scheduled) return;
        node_->network().loop().schedule(0, [this] {
          if (!readdress_pending_) return;
          const IpAddr locator = *readdress_pending_;
          readdress_pending_.reset();
          move_to(locator);
        });
      });
}

// ---------------------------------------------------------------------------
// Peer book-keeping

net::Ipv4Addr HipDaemon::add_peer(const net::Ipv6Addr& peer_hit,
                                  const IpAddr& locator) {
  Association& assoc = assoc_for(peer_hit);
  assoc.peer_locator = locator;
  return *lsi_for_peer(peer_hit);
}

std::optional<HipDaemon::EspInfo> HipDaemon::parse_esp_info(
    const Bytes* param) {
  if (param == nullptr || param->size() != 5) return std::nullopt;
  const auto suite = esp_suite_from_wire((*param)[4]);
  if (!suite) {
    ++stats_.esp_suite_rejects;
    return std::nullopt;
  }
  return EspInfo{static_cast<std::uint32_t>(crypto::read_be(*param, 0, 4)),
                 *suite};
}

void HipDaemon::install_sas(Association& assoc, const EspInfo& peer,
                            std::uint32_t spi_in) {
  assoc.spi_out = peer.spi;
  assoc.spi_in = spi_in;
  spi_to_peer_[spi_in] = assoc.peer_hit;
  assoc.sa_out = std::make_unique<EspSa>(peer.spi, peer.suite,
                                         assoc.keymat.esp_enc_out,
                                         assoc.keymat.esp_auth_out);
  assoc.sa_in = std::make_unique<EspSa>(spi_in, peer.suite,
                                        assoc.keymat.esp_enc_in,
                                        assoc.keymat.esp_auth_in);
}

HipDaemon::Association& HipDaemon::assoc_for(const net::Ipv6Addr& peer_hit) {
  auto it = assocs_.find(peer_hit);
  if (it == assocs_.end()) {
    it = assocs_.emplace(peer_hit, Association{}).first;
    it->second.peer_hit = peer_hit;
    // Assign an LSI for IPv4 applications.
    if (!hit_to_lsi_.count(peer_hit)) {
      const net::Ipv4Addr lsi(1, 0, 0, next_lsi_octet_++);
      hit_to_lsi_[peer_hit] = lsi;
      lsi_to_hit_[lsi] = peer_hit;
    }
  }
  return it->second;
}

HipDaemon::Association* HipDaemon::find_assoc(const net::Ipv6Addr& peer_hit) {
  const auto it = assocs_.find(peer_hit);
  return it == assocs_.end() ? nullptr : &it->second;
}

const HipDaemon::Association* HipDaemon::find_assoc(
    const net::Ipv6Addr& peer_hit) const {
  const auto it = assocs_.find(peer_hit);
  return it == assocs_.end() ? nullptr : &it->second;
}

bool HipDaemon::seek_esp_seq(const net::Ipv6Addr& peer_hit,
                             std::uint32_t seq) {
  Association* assoc = find_assoc(peer_hit);
  if (assoc == nullptr || !assoc->sa_out) return false;
  assoc->sa_out->seek_seq(seq);
  return true;
}

std::optional<net::Ipv6Addr> HipDaemon::peer_for_lsi(net::Ipv4Addr lsi) const {
  const auto it = lsi_to_hit_.find(lsi);
  if (it == lsi_to_hit_.end()) return std::nullopt;
  return it->second;
}

std::optional<net::Ipv4Addr> HipDaemon::lsi_for_peer(
    const net::Ipv6Addr& hit) const {
  const auto it = hit_to_lsi_.find(hit);
  if (it == hit_to_lsi_.end()) return std::nullopt;
  return it->second;
}

bool HipDaemon::is_authorized(const net::Ipv6Addr& hit) const {
  if (denied_.count(hit)) return false;
  if (allowed_.count(hit)) return true;
  return default_accept_;
}

AssocState HipDaemon::state(const net::Ipv6Addr& peer_hit) const {
  const auto it = assocs_.find(peer_hit);
  return it == assocs_.end() ? AssocState::kUnassociated : it->second.state;
}

// ---------------------------------------------------------------------------
// State-machine invariants (hipcheck)

const char* assoc_state_name(AssocState s) {
  switch (s) {
    case AssocState::kUnassociated:
      return "UNASSOCIATED";
    case AssocState::kI1Sent:
      return "I1-SENT";
    case AssocState::kI2Sent:
      return "I2-SENT";
    case AssocState::kEstablished:
      return "ESTABLISHED";
    case AssocState::kClosing:
      return "CLOSING";
    case AssocState::kFailed:
      return "FAILED";
  }
  return "?";
}

bool legal_assoc_transition(AssocState from, AssocState to) {
  switch (from) {
    case AssocState::kUnassociated:
      // Initiator starts the BEX; a responder (stateless until I2) jumps
      // straight to ESTABLISHED when a valid I2 arrives.
      return to == AssocState::kI1Sent || to == AssocState::kEstablished;
    case AssocState::kI1Sent:
      // Valid R1 advances the ladder; the retry timer restarts from I1;
      // signature/DH failure or retry exhaustion fails the association.
      // Simultaneous initiation (both sides sent I1, the I1s crossed in
      // flight): the peer's I2 can arrive while our own I1 is still
      // outstanding, and we establish as responder directly.
      return to == AssocState::kI1Sent || to == AssocState::kI2Sent ||
             to == AssocState::kEstablished || to == AssocState::kFailed;
    case AssocState::kI2Sent:
      // Valid R2 establishes; the retry timer restarts from I1 (the
      // responder is stateless until I2); retry exhaustion fails.
      return to == AssocState::kI1Sent || to == AssocState::kEstablished ||
             to == AssocState::kFailed;
    case AssocState::kEstablished:
      // Dead-peer reset / peer re-BEX tears back to UNASSOCIATED; local
      // CLOSE starts teardown. Rekey and readdress stay ESTABLISHED.
      return to == AssocState::kUnassociated || to == AssocState::kClosing;
    case AssocState::kClosing:
      // Traffic may legally re-open before the CLOSE_ACK lands (the ack
      // erases the association rather than transitioning it).
      return to == AssocState::kI1Sent;
    case AssocState::kFailed:
      // Fresh traffic retries the BEX.
      return to == AssocState::kI1Sent;
  }
  return false;
}

void HipDaemon::set_state(Association& assoc, AssocState to) {
  HIPCLOUD_AUDIT(legal_assoc_transition(assoc.state, to),
                 std::string("illegal HIP association transition ") +
                     assoc_state_name(assoc.state) + " -> " +
                     assoc_state_name(to) + " for peer " +
                     assoc.peer_hit.to_string());
  assoc.state = to;
  audit_association(assoc);
}

void HipDaemon::audit_association(const Association& assoc) const {
#ifdef HIPCLOUD_AUDIT_ENABLED
  if (assoc.state == AssocState::kEstablished) {
    HIPCLOUD_AUDIT(assoc.sa_out != nullptr && assoc.sa_in != nullptr,
                   "ESTABLISHED association without live SAs");
    HIPCLOUD_AUDIT(assoc.spi_in != 0 && assoc.spi_out != 0,
                   "ESTABLISHED association with unassigned SPIs");
    const auto it = spi_to_peer_.find(assoc.spi_in);
    HIPCLOUD_AUDIT(it != spi_to_peer_.end() && it->second == assoc.peer_hit,
                   "inbound SPI not routed to this association");
  } else {
    HIPCLOUD_AUDIT(!assoc.rekey_in_flight,
                   "rekey in flight outside ESTABLISHED");
  }
  // Old-SA drain lifecycle: the superseded inbound SA and its SPI are a
  // unit, and while one exists its grace (drain) timer must be armed —
  // otherwise the stale SPI would accept traffic forever.
  HIPCLOUD_AUDIT((assoc.old_sa_in != nullptr) == (assoc.old_spi_in != 0),
                 "old-SA/old-SPI pair out of sync");
  if (assoc.old_sa_in != nullptr) {
    HIPCLOUD_AUDIT(assoc.grace_armed, "draining old SA without grace timer");
    const auto it = spi_to_peer_.find(assoc.old_spi_in);
    HIPCLOUD_AUDIT(it != spi_to_peer_.end() && it->second == assoc.peer_hit,
                   "draining SPI not routed to this association");
  }
#else
  (void)assoc;
#endif
}

void HipDaemon::debug_force_state(const net::Ipv6Addr& peer_hit,
                                  AssocState to) {
  set_state(assoc_for(peer_hit), to);
}

// ---------------------------------------------------------------------------
// Cost helpers

double HipDaemon::sign_cycles() const {
  if (identity_.algorithm() == HiAlgorithm::kEcdsa) {
    return config_.costs.ecdsa_p256_sign_cycles;
  }
  return config_.costs.rsa_sign_cycles(identity_.rsa_bits());
}

double HipDaemon::verify_cycles(BytesView peer_hi) const {
  if (!peer_hi.empty() &&
      static_cast<HiAlgorithm>(peer_hi[0]) == HiAlgorithm::kEcdsa) {
    return config_.costs.ecdsa_p256_verify_cycles;
  }
  // Approximate modulus size from the encoding length.
  return config_.costs.rsa_verify_cycles(peer_hi.size() > 160 ? 2048 : 1024);
}

double HipDaemon::dh_cycles() const { return config_.costs.dh_modp1536_cycles; }

double HipDaemon::esp_cycles(std::size_t bytes) const {
  // NULL suite authenticates only — no AES pass.
  double per_byte = config_.costs.sha256_cycles_per_byte;
  if (config_.esp_suite != EspSuite::kNullSha256) {
    per_byte += config_.costs.aes_cycles_per_byte;
  }
  return config_.costs.packet_overhead_cycles +
         static_cast<double>(bytes) * per_byte;
}

std::uint32_t HipDaemon::fresh_spi() {
  for (;;) {
    const auto spi =
        static_cast<std::uint32_t>(crypto::read_be(drbg_.generate(4), 0, 4));
    if (spi != 0 && !spi_to_peer_.count(spi)) return spi;
  }
}

// ---------------------------------------------------------------------------
// Datapath

bool HipDaemon::shim_outbound(Packet& pkt) {
  if (!pkt.dst.is_hit() && !pkt.dst.is_lsi()) return false;
  if (node_->owns_address(pkt.dst)) return false;  // loopback to self

  net::Ipv6Addr peer_hit;
  if (pkt.dst.is_hit()) {
    peer_hit = pkt.dst.v6();
  } else {
    const auto mapped = peer_for_lsi(pkt.dst.v4());
    if (!mapped) {
      HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(),
                    "hip", node_->name() + ": no peer for LSI " +
                               pkt.dst.to_string());
      return true;  // consumed: unroutable LSI
    }
    peer_hit = *mapped;
  }

  Association& assoc = assoc_for(peer_hit);
  if (assoc.state == AssocState::kEstablished) {
    esp_send(assoc, std::move(pkt));
    return true;
  }
  if (assoc.pending.size() < kMaxPendingPackets) {
    assoc.pending.push_back(std::move(pkt));
  } else {
    ++stats_.pending_dropped;
    if (!assoc.pending_warn_logged) {
      assoc.pending_warn_logged = true;
      HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(),
                    "hip",
                    node_->name() + ": pending queue full for " +
                        peer_hit.to_string() + ", dropping outbound");
    }
  }
  if (assoc.state == AssocState::kUnassociated ||
      assoc.state == AssocState::kFailed) {
    initiate(peer_hit);
  }
  return true;
}

void HipDaemon::esp_send(Association& assoc, Packet&& pkt) {
  const std::uint8_t addr_mode =
      pkt.dst.is_lsi() ? EspSa::kModeLsi : EspSa::kModeHit;
  const double cycles =
      esp_cycles(pkt.payload.size()) +
      (addr_mode == EspSa::kModeLsi ? config_.costs.lsi_translation_cycles
                                    : config_.costs.hit_processing_cycles);
  // Stage the packet on the coalescing queue; the association object may
  // move (std::map is stable, but the assoc may be erased), so the job
  // re-finds it by HIT. The per-packet CPU charge is unchanged — only the
  // ICV computation is deferred into a batch at flush time.
  EspOutJob job;
  job.peer_hit = assoc.peer_hit;
  job.inner_proto = static_cast<std::uint8_t>(pkt.proto);
  job.addr_mode = addr_mode;
  job.buf = std::move(pkt.payload);
  esp_out_queue_.push_back(std::move(job));
  charge(cycles, [this]() {
    // CPU completions pop 1:1 and FIFO against the charges above, so the
    // front job is always this callback's packet.
    if (esp_out_queue_.empty()) return;
    if (!esp_out_queue_.front().protected_ && !esp_out_queue_.front().skipped) {
      // First completion of a burst: everything staged in the meantime
      // (the whole event tick's worth) gets its ICVs in one batch.
      flush_esp_out_queue();
    }
    EspOutJob done = std::move(esp_out_queue_.front());
    esp_out_queue_.pop_front();
    if (done.skipped) return;  // association went away before the flush
    Association* found = find_assoc(done.peer_hit);
    if (found == nullptr || found->state != AssocState::kEstablished) return;
    Packet out;
    out.dst = found->peer_locator;
    const auto src = node_->select_source(out.dst);
    if (!src) return;
    out.src = *src;
    out.proto = IpProto::kEsp;
    out.payload = std::move(done.buf);
    if (out.payload.empty()) {
      // Outbound SA exhausted its 32-bit sequence space. The packet is
      // lost (transport retransmits); force a rekey so the next ones
      // aren't.
      ++stats_.sa_exhausted_drops;
      start_rekey(*found);
      return;
    }
    out.stamp_l3_overhead();
    ++stats_.esp_packets_out;
    stats_.esp_bytes_out += out.payload.size();
    node_->send(std::move(out));
    if (config_.esp_rekey_threshold != 0 &&
        found->sa_out->remaining_seq() <= config_.esp_rekey_threshold) {
      start_rekey(*found);
    }
  });
}

void HipDaemon::flush_esp_out_queue() {
  // Protect every still-unprotected job, grouped per SA but in queue
  // order within each group — sequence numbers and IVs land exactly as
  // sequential protect_packet() calls would have assigned them.
  for (std::size_t i = 0; i < esp_out_queue_.size(); ++i) {
    EspOutJob& head = esp_out_queue_[i];
    if (head.protected_ || head.skipped) continue;
    Association* assoc = find_assoc(head.peer_hit);
    if (assoc == nullptr || assoc->state != AssocState::kEstablished ||
        assoc->sa_out == nullptr) {
      head.skipped = true;
      continue;
    }
    std::vector<EspSa::ProtectJob>& batch = esp_out_batch_;
    std::vector<std::size_t>& positions = esp_batch_positions_;
    for (std::size_t j = i; j < esp_out_queue_.size(); ++j) {
      EspOutJob& job = esp_out_queue_[j];
      if (job.protected_ || job.skipped || job.peer_hit != head.peer_hit) {
        continue;
      }
      batch.push_back(
          {job.inner_proto, job.addr_mode, std::move(job.buf)});
      positions.push_back(j);
    }
    assoc->sa_out->protect_batch(batch);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      esp_out_queue_[positions[k]].buf = std::move(batch[k].buf);
      esp_out_queue_[positions[k]].protected_ = true;
    }
    batch.clear();
    positions.clear();
  }
}

EspSa* HipDaemon::resolve_in_sa(Association* assoc, std::uint32_t spi) {
  if (assoc == nullptr || assoc->sa_in == nullptr) return nullptr;
  // Dispatch by SPI: packets protected just before a rekey still carry
  // the superseded SPI and decode via the grace-period SA.
  if (spi == assoc->sa_in->spi()) return assoc->sa_in.get();
  if (assoc->old_sa_in != nullptr && spi == assoc->old_spi_in) {
    return assoc->old_sa_in.get();
  }
  return nullptr;
}

void HipDaemon::flush_esp_in_queue() {
  // Unwrap every still-wrapped job, grouped per resolved inbound SA but
  // in queue order within each group — queue order is charge-completion
  // order, so replay-window updates and drop decisions land exactly as
  // sequential unprotect_packet() calls would have made them.
  for (std::size_t i = 0; i < esp_in_queue_.size(); ++i) {
    EspInJob& head = esp_in_queue_[i];
    if (head.unprotected || head.skipped) continue;
    EspSa* head_sa = resolve_in_sa(find_assoc(head.peer_hit), head.spi);
    if (head_sa == nullptr) {
      head.skipped = true;
      continue;
    }
    std::vector<EspSa::UnprotectJob>& batch = esp_in_batch_;
    std::vector<std::size_t>& positions = esp_batch_positions_;
    for (std::size_t j = i; j < esp_in_queue_.size(); ++j) {
      EspInJob& job = esp_in_queue_[j];
      if (job.unprotected || job.skipped) continue;
      if (j > i &&
          resolve_in_sa(find_assoc(job.peer_hit), job.spi) != head_sa) {
        continue;
      }
      batch.push_back({std::move(job.wire), std::nullopt});
      positions.push_back(j);
    }
    head_sa->unprotect_batch(batch);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      esp_in_queue_[positions[k]].result = std::move(batch[k].result);
      esp_in_queue_[positions[k]].unprotected = true;
    }
    // Emptied now, not on the next flush: a rejected packet's wire
    // buffer goes back to the pool here.
    batch.clear();
    positions.clear();
  }
}

void HipDaemon::on_esp_packet(Packet&& pkt) {
  if (pkt.payload.size() < 4) return;
  const auto spi =
      static_cast<std::uint32_t>(crypto::read_be(pkt.payload, 0, 4));
  const auto it = spi_to_peer_.find(spi);
  if (it == spi_to_peer_.end()) return;
  const net::Ipv6Addr peer_hit = it->second;
  const double cycles = esp_cycles(pkt.payload.size());
  // Stage on the receive coalescing queue; the per-packet CPU charge is
  // unchanged — only the ICV verification is deferred into a batch at
  // flush time, so a tick's worth of inbound datagrams shares one
  // multi-buffer HMAC pass.
  EspInJob job;
  job.peer_hit = peer_hit;
  job.spi = spi;
  job.wire_size = pkt.payload.size();
  job.wire = std::move(pkt.payload);
  esp_in_queue_.push_back(std::move(job));
  charge(cycles, [this]() {
    // CPU completions pop 1:1 and FIFO against the charges above, so the
    // front job is always this callback's packet.
    if (esp_in_queue_.empty()) return;
    if (!esp_in_queue_.front().unprotected && !esp_in_queue_.front().skipped) {
      flush_esp_in_queue();
    }
    EspInJob done = std::move(esp_in_queue_.front());
    esp_in_queue_.pop_front();
    if (done.skipped) return;
    Association* found = find_assoc(done.peer_hit);
    if (found == nullptr || found->sa_in == nullptr) return;
    if (!done.result) {
      ++stats_.auth_failures;
      return;
    }
    found->last_heard = node_->network().loop().now();
    ++stats_.esp_packets_in;
    stats_.esp_bytes_in += done.wire_size;

    Packet out;
    out.proto = static_cast<IpProto>(done.result->inner_proto);
    if (done.result->addr_mode == EspSa::kModeLsi) {
      // Charge the extra HIT<->LSI rewrite the paper blames for HIP's
      // deficit vs SSL.
      node_->cpu().charge(config_.costs.lsi_translation_cycles);
      out.src = *lsi_for_peer(done.peer_hit);
      out.dst = config_.local_lsi;
    } else {
      out.src = done.peer_hit;
      out.dst = identity_.hit();
    }
    out.payload = std::move(done.result->payload);
    out.stamp_l3_overhead();
    node_->deliver(std::move(out), 0);
  });
}

// ---------------------------------------------------------------------------
// Control plane

void HipDaemon::send_control(const HipMessage& msg, const IpAddr& dst,
                             std::optional<IpAddr> src) {
  Packet pkt;
  pkt.dst = dst;
  if (src) {
    pkt.src = *src;
  } else {
    const auto selected = node_->select_source(dst);
    if (!selected) {
      HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(),
                    "hip", node_->name() + ": no source for control to " +
                               dst.to_string());
      return;
    }
    pkt.src = *selected;
  }
  pkt.proto = IpProto::kHip;
  pkt.payload = msg.serialize();
  pkt.stamp_l3_overhead();
  HIPCLOUD_LOG(sim::LogLevel::kDebug, node_->network().loop().now(), "hip",
               node_->name() + " tx " + msg.describe());
  node_->send(std::move(pkt));
}

void HipDaemon::initiate(const net::Ipv6Addr& peer_hit) {
  Association& assoc = assoc_for(peer_hit);
  if (assoc.state == AssocState::kI1Sent ||
      assoc.state == AssocState::kI2Sent ||
      assoc.state == AssocState::kEstablished) {
    return;
  }
  if (assoc.peer_locator == IpAddr{}) {
    HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(),
                  "hip", node_->name() + ": no locator for " +
                             peer_hit.to_string());
    return;
  }
  set_state(assoc, AssocState::kI1Sent);
  assoc.retries = 0;
  assoc.bex_start = node_->network().loop().now();
  ++stats_.bex_initiated;
  send_i1(assoc);
}

void HipDaemon::send_i1(Association& assoc) {
  HipMessage i1;
  i1.type = MsgType::kI1;
  i1.sender_hit = identity_.hit();
  i1.receiver_hit = assoc.peer_hit;
  send_control(i1, assoc.peer_locator);
  arm_retry(assoc);
}

void HipDaemon::arm_retry(Association& assoc) {
  cancel_retry(assoc);
  const net::Ipv6Addr peer = assoc.peer_hit;
  assoc.retry_timer = node_->network().loop().schedule(
      config_.bex_retry, [this, peer] {
        Association* a = find_assoc(peer);
        if (a == nullptr) return;
        a->retry_armed = false;
        if (a->state != AssocState::kI1Sent &&
            a->state != AssocState::kI2Sent) {
          return;
        }
        if (++a->retries > config_.bex_max_retries) {
          fail_association(*a);
          return;
        }
        // Restart from I1; the responder is stateless until I2.
        set_state(*a, AssocState::kI1Sent);
        send_i1(*a);
      });
  assoc.retry_armed = true;
}

void HipDaemon::cancel_retry(Association& assoc) {
  if (assoc.retry_armed) {
    node_->network().loop().cancel(assoc.retry_timer);
    assoc.retry_armed = false;
  }
}

void HipDaemon::fail_association(Association& assoc) {
  set_state(assoc, AssocState::kFailed);
  if (!assoc.pending.empty()) {
    stats_.pending_failed += assoc.pending.size();
    HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(),
                  "hip",
                  node_->name() + ": dropping " +
                      std::to_string(assoc.pending.size()) +
                      " pending packets for " + assoc.peer_hit.to_string());
  }
  assoc.pending.clear();
  cancel_retry(assoc);
  ++stats_.bex_failed;
  HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(), "hip",
                node_->name() + ": BEX with " + assoc.peer_hit.to_string() +
                    " failed");
}

std::uint8_t HipDaemon::current_puzzle_difficulty() const {
  std::uint8_t k = config_.puzzle_difficulty;
  if (config_.adaptive_puzzle && !recent_r1_times_.empty()) {
    const double rate = static_cast<double>(recent_r1_times_.size());
    double extra = 0;
    double threshold = config_.adaptive_threshold_rps;
    while (rate > threshold && extra < 10) {
      threshold *= 2;
      ++extra;
    }
    k = static_cast<std::uint8_t>(
        std::min(static_cast<double>(kMaxPuzzleDifficulty), k + extra));
  }
  return k;
}

void HipDaemon::note_r1_sent() {
  const sim::Time now = node_->network().loop().now();
  recent_r1_times_.push_back(now);
  while (!recent_r1_times_.empty() &&
         recent_r1_times_.front() < now - sim::kSecond) {
    recent_r1_times_.pop_front();
  }
  ++stats_.r1_sent;
}

HipMessage HipDaemon::build_r1(const net::Ipv6Addr& initiator_hit) {
  HipMessage r1;
  r1.type = MsgType::kR1;
  r1.sender_hit = identity_.hit();
  r1.receiver_hit = initiator_hit;
  Puzzle puzzle;
  puzzle.difficulty_k = current_puzzle_difficulty();
  puzzle.random_i = puzzle_i_;
  r1.set_param(ParamType::kPuzzle, encode_puzzle(puzzle));
  Bytes dh_param{static_cast<std::uint8_t>(config_.dh_group)};
  dh_param.insert(dh_param.end(), dh_.public_value().begin(),
                  dh_.public_value().end());
  r1.set_param(ParamType::kDiffieHellman, std::move(dh_param));
  r1.set_param(ParamType::kHipCipher,
               Bytes{static_cast<std::uint8_t>(config_.esp_suite)});
  r1.set_param(ParamType::kHostId, identity_.public_encoding());
  r1.set_param(ParamType::kSignature, identity_.sign(r1.signed_view()));
  return r1;
}

void HipDaemon::on_hip_packet(Packet&& pkt) {
  HipMessage msg;
  try {
    msg = HipMessage::parse(pkt.payload);
  } catch (const std::runtime_error&) {
    return;
  }
  HIPCLOUD_LOG(sim::LogLevel::kDebug, node_->network().loop().now(), "hip",
               node_->name() + " rx " + msg.describe());

  // Rendezvous relay: control message for someone we front.
  if (msg.receiver_hit != identity_.hit()) {
    if (rvs_server_ && msg.type == MsgType::kI1) {
      const auto it = rvs_registrations_.find(msg.receiver_hit);
      if (it != rvs_registrations_.end()) {
        Packet relayed = pkt;
        relayed.dst = it->second;
        relayed.ttl = 64;
        // The initiator's locator stays in pkt.src so the responder can
        // answer directly (RFC 5204 relay semantics).
        node_->send_raw(std::move(relayed));
        return;
      }
    }
    return;  // not for us, not relayable
  }

  switch (msg.type) {
    case MsgType::kI1:
      handle_i1(msg, pkt);
      break;
    case MsgType::kR1:
      handle_r1(msg, pkt);
      break;
    case MsgType::kI2:
      handle_i2(msg, pkt);
      break;
    case MsgType::kR2:
      handle_r2(msg, pkt);
      break;
    case MsgType::kUpdate:
      handle_update(msg, pkt);
      break;
    case MsgType::kClose:
      handle_close(msg);
      break;
    case MsgType::kCloseAck:
      handle_close_ack(msg);
      break;
    case MsgType::kRvsRegister:
      handle_rvs_register(msg, pkt);
      break;
    default:
      break;
  }
}

void HipDaemon::handle_i1(const HipMessage& msg, const Packet& pkt) {
  if (!is_authorized(msg.sender_hit)) {
    ++stats_.acl_rejects;
    return;
  }
  // Simultaneous BEX tie-break (RFC 5201 §4.4.2): the larger HIT stays
  // initiator; the smaller aborts its own exchange and responds.
  Association* existing = find_assoc(msg.sender_hit);
  if (existing != nullptr && existing->state == AssocState::kI1Sent &&
      identity_.hit() > msg.sender_hit) {
    return;  // we out-rank them; our exchange proceeds
  }
  // Stateless response: R1 is precomputed in real HIP deployments, so we
  // charge only light processing, not a signature (DoS resistance).
  note_r1_sent();
  const HipMessage r1 = build_r1(msg.sender_hit);
  charge(config_.costs.packet_overhead_cycles,
         [this, r1, src = pkt.src] { send_control(r1, src); });
}

void HipDaemon::handle_r1(const HipMessage& msg, const Packet& pkt) {
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->state != AssocState::kI1Sent) return;

  const Bytes* peer_hi = msg.param(ParamType::kHostId);
  const Bytes* dh_param = msg.param(ParamType::kDiffieHellman);
  const Bytes* puzzle_param = msg.param(ParamType::kPuzzle);
  const Bytes* signature = msg.param(ParamType::kSignature);
  if (peer_hi == nullptr || dh_param == nullptr || puzzle_param == nullptr ||
      signature == nullptr || dh_param->size() < 2) {
    return;
  }
  // HIT must be the hash of the offered HI — the identity check that
  // rules out impersonation.
  if (HostIdentity::derive_hit(*peer_hi) != msg.sender_hit) {
    ++stats_.auth_failures;
    return;
  }
  if (!is_authorized(msg.sender_hit)) {
    ++stats_.acl_rejects;
    return;
  }
  const auto puzzle = decode_puzzle(*puzzle_param);
  if (!puzzle) return;
  // K comes off the wire, and solving costs ~2^K hashes on this host:
  // refuse a puzzle above the bound before any other work. The retry
  // timer stays armed, so the BEX retries and fails if every R1 asks
  // too much.
  if (puzzle->difficulty_k > kMaxPuzzleDifficulty) {
    ++stats_.puzzle_too_hard;
    return;
  }

  // Update locator to wherever R1 actually came from (rendezvous case).
  assoc->peer_locator = pkt.src;
  assoc->peer_hi = *peer_hi;
  cancel_retry(*assoc);

  // Verify R1 signature, solve the puzzle, run DH — all charged.
  const bool sig_ok =
      HostIdentity::verify(*peer_hi, msg.signed_view(), *signature);
  if (!sig_ok) {
    ++stats_.auth_failures;
    fail_association(*assoc);
    return;
  }
  const Puzzle::Solution solution =
      puzzle->solve(identity_.hit(), msg.sender_hit);
  Bytes dh_secret;
  try {
    dh_secret = dh_.compute_shared(BytesView(*dh_param).subspan(1));
  } catch (const std::runtime_error&) {
    fail_association(*assoc);
    return;
  }
  const double cycles =
      verify_cycles(*peer_hi) +
      static_cast<double>(solution.attempts) * config_.costs.puzzle_hash_cycles +
      dh_cycles() + sign_cycles();

  const net::Ipv6Addr peer_hit = msg.sender_hit;
  const Bytes puzzle_bytes = *puzzle_param;
  charge(cycles, [this, peer_hit, solution, dh_secret, puzzle_bytes] {
    Association* found = find_assoc(peer_hit);
    if (found == nullptr || found->state != AssocState::kI1Sent) return;
    found->keymat = Keymat::derive(dh_secret, identity_.hit(), peer_hit);
    found->spi_in = fresh_spi();
    spi_to_peer_[found->spi_in] = peer_hit;

    HipMessage i2;
    i2.type = MsgType::kI2;
    i2.sender_hit = identity_.hit();
    i2.receiver_hit = peer_hit;
    Bytes sol = puzzle_bytes;
    crypto::append_be(sol, solution.j, 8);
    i2.set_param(ParamType::kSolution, std::move(sol));
    Bytes dh_payload{static_cast<std::uint8_t>(config_.dh_group)};
    dh_payload.insert(dh_payload.end(), dh_.public_value().begin(),
                      dh_.public_value().end());
    i2.set_param(ParamType::kDiffieHellman, std::move(dh_payload));
    i2.set_param(ParamType::kHostId, identity_.public_encoding());
    i2.set_param(ParamType::kEspInfo,
                 encode_esp_info(found->spi_in, config_.esp_suite));
    i2.set_param(ParamType::kSignature, identity_.sign(i2.signed_view()));
    i2.attach_hmac(found->keymat.hip_hmac_out);

    set_state(*found, AssocState::kI2Sent);
    send_control(i2, found->peer_locator);
    arm_retry(*found);
  });
}

void HipDaemon::handle_i2(const HipMessage& msg, const Packet& pkt) {
  if (!is_authorized(msg.sender_hit)) {
    ++stats_.acl_rejects;
    return;
  }
  const Bytes* peer_hi = msg.param(ParamType::kHostId);
  const Bytes* dh_param = msg.param(ParamType::kDiffieHellman);
  const Bytes* solution = msg.param(ParamType::kSolution);
  const Bytes* signature = msg.param(ParamType::kSignature);
  const auto esp_info = parse_esp_info(msg.param(ParamType::kEspInfo));
  if (peer_hi == nullptr || dh_param == nullptr || solution == nullptr ||
      signature == nullptr || !esp_info || dh_param->size() < 2 ||
      solution->size() != 17) {
    return;
  }
  if (HostIdentity::derive_hit(*peer_hi) != msg.sender_hit) {
    ++stats_.auth_failures;
    return;
  }
  // Puzzle check: one hash, cheap — done before the expensive work.
  const auto puzzle = decode_puzzle(BytesView(*solution).subspan(0, 9));
  const std::uint64_t j = crypto::read_be(*solution, 9, 8);
  if (!puzzle || puzzle->random_i != puzzle_i_ ||
      !puzzle->verify(msg.sender_hit, identity_.hit(), j)) {
    return;  // bogus solution: drop silently, costing us almost nothing
  }

  Bytes dh_secret;
  try {
    dh_secret = dh_.compute_shared(BytesView(*dh_param).subspan(1));
  } catch (const std::runtime_error&) {
    return;
  }
  const Keymat keymat =
      Keymat::derive(dh_secret, identity_.hit(), msg.sender_hit);
  if (!msg.check_hmac(keymat.hip_hmac_in)) {
    ++stats_.auth_failures;
    return;
  }
  if (!HostIdentity::verify(*peer_hi, msg.signed_view(), *signature)) {
    ++stats_.auth_failures;
    return;
  }

  const double cycles = dh_cycles() + verify_cycles(*peer_hi) + sign_cycles();
  const net::Ipv6Addr peer_hit = msg.sender_hit;
  const EspInfo peer_esp = *esp_info;
  const Bytes hi_copy = *peer_hi;
  const IpAddr initiator_locator = pkt.src;
  charge(cycles, [this, peer_hit, peer_esp, keymat, hi_copy,
                  initiator_locator] {
    Association& assoc = assoc_for(peer_hit);
    const bool duplicate_i2 = assoc.state == AssocState::kEstablished &&
                              assoc.spi_out == peer_esp.spi;
    if (duplicate_i2) {
      // Same exchange, our R2 was lost: re-send R2 idempotently.
    } else {
      // Fresh exchange — including a re-BEX from a peer that tore down
      // its side (crash, dead-peer timeout) while we still held the old
      // association. Retire every stale SA/SPI before installing anew;
      // reusing the old inbound SA would reject the restarted peer's
      // low sequence numbers as replays.
      if (assoc.state == AssocState::kEstablished) {
        cancel_recovery_timers(assoc);
        if (assoc.sa_in) spi_to_peer_.erase(assoc.spi_in);
        if (assoc.old_sa_in) spi_to_peer_.erase(assoc.old_spi_in);
        assoc.old_sa_in.reset();
        assoc.old_spi_in = 0;
        assoc.rekey_generation = 0;
        assoc.rekey_in_flight = false;
        set_state(assoc, AssocState::kUnassociated);
      }
      assoc.peer_hi = hi_copy;
      assoc.peer_locator = initiator_locator;
      assoc.keymat = keymat;
      install_sas(assoc, peer_esp, fresh_spi());
    }
    HipMessage r2;
    r2.type = MsgType::kR2;
    r2.sender_hit = identity_.hit();
    r2.receiver_hit = peer_hit;
    r2.set_param(ParamType::kEspInfo,
                 encode_esp_info(assoc.spi_in, assoc.sa_in->suite()));
    r2.set_param(ParamType::kSignature, identity_.sign(r2.signed_view()));
    r2.attach_hmac(assoc.keymat.hip_hmac_out);
    send_control(r2, assoc.peer_locator);

    if (assoc.state != AssocState::kEstablished) {
      establish(assoc, 0);  // responder-side latency tracked by initiator
    }
  });
}

void HipDaemon::handle_r2(const HipMessage& msg, const Packet& pkt) {
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->state != AssocState::kI2Sent) return;
  const auto esp_info = parse_esp_info(msg.param(ParamType::kEspInfo));
  const Bytes* signature = msg.param(ParamType::kSignature);
  if (!esp_info || signature == nullptr) return;
  if (!msg.check_hmac(assoc->keymat.hip_hmac_in)) {
    ++stats_.auth_failures;
    return;
  }
  if (!HostIdentity::verify(assoc->peer_hi, msg.signed_view(), *signature)) {
    ++stats_.auth_failures;
    return;
  }
  cancel_retry(*assoc);
  assoc->peer_locator = pkt.src;

  const net::Ipv6Addr peer_hit = msg.sender_hit;
  const EspInfo peer_esp = *esp_info;
  charge(verify_cycles(assoc->peer_hi), [this, peer_hit, peer_esp] {
    Association* found = find_assoc(peer_hit);
    if (found == nullptr || found->state != AssocState::kI2Sent) return;
    install_sas(*found, peer_esp, found->spi_in);
    establish(*found,
              node_->network().loop().now() - found->bex_start);
  });
}

void HipDaemon::establish(Association& assoc, sim::Duration latency) {
  set_state(assoc, AssocState::kEstablished);
  assoc.retries = 0;
  assoc.last_heard = node_->network().loop().now();
  assoc.keepalive_misses = 0;
  if (!assoc.keepalive_armed) arm_keepalive(assoc);
  ++stats_.bex_completed;
  HIPCLOUD_LOG(sim::LogLevel::kInfo, node_->network().loop().now(), "hip",
                node_->name() + ": association with " +
                    assoc.peer_hit.to_string() + " established");
  if (on_established_) on_established_(assoc.peer_hit, latency);
  if (pending_rvs_targets_.erase(assoc.peer_hit) > 0) {
    register_with_rvs(assoc.peer_hit);
  }
  // Flush traffic that was waiting on the BEX.
  std::deque<Packet> pending;
  pending.swap(assoc.pending);
  for (auto& pkt : pending) esp_send(assoc, std::move(pkt));
}

// ---------------------------------------------------------------------------
// Mobility

void HipDaemon::move_to(const IpAddr& new_locator) {
  if (on_locator_change_) on_locator_change_(new_locator);
  for (auto& [peer_hit, assoc] : assocs_) {
    if (assoc.state != AssocState::kEstablished) continue;
    assoc.update_seq_out++;
    assoc.echo_nonce = crypto::read_be(drbg_.generate(8), 0, 8);
    assoc.locator_in_flight = new_locator;

    HipMessage update;
    update.type = MsgType::kUpdate;
    update.sender_hit = identity_.hit();
    update.receiver_hit = peer_hit;
    update.set_param(ParamType::kLocator, encode_locator(new_locator));
    update.set_u64(ParamType::kSeq, assoc.update_seq_out);
    update.set_u64(ParamType::kEchoRequestSigned, assoc.echo_nonce);
    update.set_param(ParamType::kSignature,
                     identity_.sign(update.signed_view()));
    update.attach_hmac(assoc.keymat.hip_hmac_out);
    // Sent from the new locator: the peer learns it from both the
    // LOCATOR parameter and the packet source.
    send_control(update, assoc.peer_locator, new_locator);
  }
}

void HipDaemon::handle_update(const HipMessage& msg, const Packet& pkt) {
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->state != AssocState::kEstablished) return;
  if (!msg.check_hmac(assoc->keymat.hip_hmac_in)) {
    ++stats_.auth_failures;
    return;
  }
  const Bytes* signature = msg.param(ParamType::kSignature);
  if (signature == nullptr ||
      !HostIdentity::verify(assoc->peer_hi, msg.signed_view(), *signature)) {
    ++stats_.auth_failures;
    return;
  }

  const net::Ipv6Addr peer_hit = msg.sender_hit;
  assoc->last_heard = node_->network().loop().now();

  const Bytes* esp_info_param = msg.param(ParamType::kEspInfo);
  const auto ack_seq = msg.u64(ParamType::kAck);

  // Rekey acknowledgement: the responder installed generation g+1 and
  // tells us its fresh inbound SPI. Install our side symmetrically.
  if (ack_seq && esp_info_param != nullptr && assoc->rekey_in_flight) {
    const auto esp_info = parse_esp_info(esp_info_param);
    if (!esp_info) return;
    const std::uint32_t gen = assoc->rekey_generation + 1;
    assoc->keymat.ratchet_esp(gen);
    retire_old_sa_in(*assoc);
    install_sas(*assoc, *esp_info, assoc->rekey_new_spi_in);
    assoc->rekey_generation = gen;
    assoc->rekey_in_flight = false;
    if (assoc->rekey_timer_armed) {
      node_->network().loop().cancel(assoc->rekey_timer);
      assoc->rekey_timer_armed = false;
    }
    audit_association(*assoc);
    ++stats_.rekeys_completed;
    ++stats_.updates_processed;
    HIPCLOUD_LOG(sim::LogLevel::kInfo, node_->network().loop().now(),
                  "hip",
                  node_->name() + ": rekeyed with " + peer_hit.to_string() +
                      " (generation " + std::to_string(gen) + ")");
    return;
  }

  // Echo response: confirms our mobility UPDATE or answers a keepalive.
  if (const auto echoed = msg.u64(ParamType::kEchoResponseSigned)) {
    if (*echoed == assoc->echo_nonce && assoc->locator_in_flight) {
      assoc->locator_in_flight.reset();
      ++stats_.updates_processed;
    } else if (*echoed == assoc->keepalive_nonce) {
      assoc->keepalive_misses = 0;
    }
    return;
  }

  const Bytes* locator_param = msg.param(ParamType::kLocator);
  const auto seq = msg.u64(ParamType::kSeq);
  const auto nonce = msg.u64(ParamType::kEchoRequestSigned);

  // Rekey request (ESP_INFO + SEQ, no LOCATOR): peer wants generation
  // g+1. Both sides ratchet the ESP keys independently from the shared
  // keymat, so no new DH is needed — fresh SPIs, fresh replay windows.
  if (esp_info_param != nullptr && seq && locator_param == nullptr) {
    const auto esp_info = parse_esp_info(esp_info_param);
    if (!esp_info) return;
    if (*seq <= assoc->update_seq_in_seen) {
      // Retransmit of a rekey we already applied (our ack was lost):
      // re-acknowledge with the SPI installed back then.
      if (*seq == assoc->last_rekey_seq && assoc->sa_in != nullptr) {
        HipMessage re_ack;
        re_ack.type = MsgType::kUpdate;
        re_ack.sender_hit = identity_.hit();
        re_ack.receiver_hit = peer_hit;
        re_ack.set_u64(ParamType::kAck, *seq);
        re_ack.set_param(ParamType::kEspInfo,
                         encode_esp_info(assoc->spi_in,
                                         assoc->sa_in->suite()));
        re_ack.set_param(ParamType::kSignature,
                         identity_.sign(re_ack.signed_view()));
        re_ack.attach_hmac(assoc->keymat.hip_hmac_out);
        send_control(re_ack, assoc->peer_locator);
      }
      return;
    }
    if (assoc->rekey_in_flight) {
      // Simultaneous rekey: the larger HIT's exchange wins (mirrors the
      // BEX tie-break); the smaller side abandons its own attempt and
      // answers the peer's.
      if (identity_.hit() > peer_hit) return;
      assoc->rekey_in_flight = false;
      if (assoc->rekey_timer_armed) {
        node_->network().loop().cancel(assoc->rekey_timer);
        assoc->rekey_timer_armed = false;
      }
    }
    assoc->update_seq_in_seen = *seq;
    assoc->last_rekey_seq = *seq;
    const std::uint32_t gen = assoc->rekey_generation + 1;
    assoc->keymat.ratchet_esp(gen);
    retire_old_sa_in(*assoc);
    install_sas(*assoc, *esp_info, fresh_spi());
    assoc->rekey_generation = gen;
    audit_association(*assoc);
    ++stats_.rekeys_completed;
    ++stats_.updates_processed;

    HipMessage rekey_ack;
    rekey_ack.type = MsgType::kUpdate;
    rekey_ack.sender_hit = identity_.hit();
    rekey_ack.receiver_hit = peer_hit;
    rekey_ack.set_u64(ParamType::kAck, *seq);
    rekey_ack.set_param(ParamType::kEspInfo,
                        encode_esp_info(assoc->spi_in, esp_info->suite));
    rekey_ack.set_param(ParamType::kSignature,
                        identity_.sign(rekey_ack.signed_view()));
    rekey_ack.attach_hmac(assoc->keymat.hip_hmac_out);
    send_control(rekey_ack, assoc->peer_locator);
    return;
  }

  // Keepalive probe (bare ECHO_REQUEST): answer so the peer knows we are
  // alive; no state changes.
  if (locator_param == nullptr && !seq && nonce) {
    charge(sign_cycles(), [this, peer_hit, nonce = *nonce] {
      Association* found = find_assoc(peer_hit);
      if (found == nullptr) return;
      HipMessage pong;
      pong.type = MsgType::kUpdate;
      pong.sender_hit = identity_.hit();
      pong.receiver_hit = peer_hit;
      pong.set_u64(ParamType::kEchoResponseSigned, nonce);
      pong.set_param(ParamType::kSignature,
                     identity_.sign(pong.signed_view()));
      pong.attach_hmac(found->keymat.hip_hmac_out);
      send_control(pong, found->peer_locator);
    });
    return;
  }

  // Peer announces a new locator: verify, adopt, echo the nonce back
  // (the replay protection the paper describes for HIP mobility).
  if (locator_param == nullptr || !seq || !nonce) return;
  if (*seq <= assoc->update_seq_in_seen) return;  // stale or replayed
  const auto new_locator = decode_locator(*locator_param);
  if (!new_locator) return;

  assoc->update_seq_in_seen = *seq;
  assoc->peer_locator = *new_locator;
  ++stats_.updates_processed;

  charge(sign_cycles(), [this, peer_hit, nonce = *nonce, seq = *seq] {
    Association* found = find_assoc(peer_hit);
    if (found == nullptr) return;
    HipMessage ack;
    ack.type = MsgType::kUpdate;
    ack.sender_hit = identity_.hit();
    ack.receiver_hit = peer_hit;
    ack.set_u64(ParamType::kAck, seq);
    ack.set_u64(ParamType::kEchoResponseSigned, nonce);
    ack.set_param(ParamType::kSignature, identity_.sign(ack.signed_view()));
    ack.attach_hmac(found->keymat.hip_hmac_out);
    send_control(ack, found->peer_locator);
  });
  (void)pkt;
}

// ---------------------------------------------------------------------------
// Recovery: rekey, keepalive, dead-peer teardown

void HipDaemon::start_rekey(Association& assoc) {
  if (assoc.rekey_in_flight || assoc.state != AssocState::kEstablished) {
    return;
  }
  assoc.rekey_in_flight = true;
  assoc.rekey_retries = 0;
  assoc.rekey_new_spi_in = fresh_spi();
  ++assoc.update_seq_out;
  ++stats_.rekeys_initiated;
  send_rekey_update(assoc);
}

void HipDaemon::send_rekey_update(Association& assoc) {
  HipMessage update;
  update.type = MsgType::kUpdate;
  update.sender_hit = identity_.hit();
  update.receiver_hit = assoc.peer_hit;
  update.set_param(ParamType::kEspInfo,
                   encode_esp_info(assoc.rekey_new_spi_in, config_.esp_suite));
  update.set_u64(ParamType::kSeq, assoc.update_seq_out);
  update.set_param(ParamType::kSignature,
                   identity_.sign(update.signed_view()));
  update.attach_hmac(assoc.keymat.hip_hmac_out);
  send_control(update, assoc.peer_locator);

  const net::Ipv6Addr peer = assoc.peer_hit;
  if (assoc.rekey_timer_armed) {
    node_->network().loop().cancel(assoc.rekey_timer);
  }
  assoc.rekey_timer = node_->network().loop().schedule(
      config_.bex_retry, [this, peer] {
        Association* a = find_assoc(peer);
        if (a == nullptr) return;
        a->rekey_timer_armed = false;
        if (!a->rekey_in_flight) return;
        if (++a->rekey_retries > config_.bex_max_retries) {
          // Give up: the SA keeps running on its old keys (keepalive
          // handles a genuinely dead peer) and the next send below the
          // threshold retries the rollover.
          a->rekey_in_flight = false;
          return;
        }
        send_rekey_update(*a);
      });
  assoc.rekey_timer_armed = true;
}

void HipDaemon::retire_old_sa_in(Association& assoc) {
  if (assoc.old_sa_in != nullptr) {
    // Back-to-back rekeys: the previous generation's grace ends now.
    spi_to_peer_.erase(assoc.old_spi_in);
    if (assoc.grace_armed) {
      node_->network().loop().cancel(assoc.grace_timer);
      assoc.grace_armed = false;
    }
  }
  assoc.old_sa_in = std::move(assoc.sa_in);
  assoc.old_spi_in = assoc.spi_in;
  if (assoc.old_sa_in == nullptr) {
    // Nothing to drain; keep the old-SA/old-SPI pair in lockstep (the
    // audit_association invariant).
    assoc.old_spi_in = 0;
    return;
  }
  const net::Ipv6Addr peer = assoc.peer_hit;
  assoc.grace_timer =
      node_->network().loop().schedule(config_.rekey_grace, [this, peer] {
        Association* a = find_assoc(peer);
        if (a == nullptr) return;
        a->grace_armed = false;
        if (a->old_sa_in != nullptr) {
          spi_to_peer_.erase(a->old_spi_in);
          a->old_sa_in.reset();
          a->old_spi_in = 0;
        }
      });
  assoc.grace_armed = true;
}

void HipDaemon::arm_keepalive(Association& assoc) {
  if (config_.keepalive_interval <= 0) return;
  const net::Ipv6Addr peer = assoc.peer_hit;
  assoc.keepalive_timer = node_->network().loop().schedule(
      config_.keepalive_interval, [this, peer] {
        Association* a = find_assoc(peer);
        if (a == nullptr) return;
        a->keepalive_armed = false;
        if (a->state != AssocState::kEstablished) return;
        const sim::Time now = node_->network().loop().now();
        if (now - a->last_heard < config_.keepalive_interval) {
          // Data traffic is keeping the association demonstrably alive.
          a->keepalive_misses = 0;
          arm_keepalive(*a);
          return;
        }
        if (a->keepalive_misses >= config_.keepalive_max_misses) {
          ++stats_.peer_failures;
          HIPCLOUD_LOG(sim::LogLevel::kWarn, now, "hip",
                        node_->name() + ": peer " + peer.to_string() +
                            " declared dead after " +
                            std::to_string(a->keepalive_misses) +
                            " missed keepalives");
          reset_association(*a);
          return;
        }
        ++a->keepalive_misses;
        a->keepalive_nonce = crypto::read_be(drbg_.generate(8), 0, 8);
        HipMessage probe;
        probe.type = MsgType::kUpdate;
        probe.sender_hit = identity_.hit();
        probe.receiver_hit = peer;
        probe.set_u64(ParamType::kEchoRequestSigned, a->keepalive_nonce);
        probe.set_param(ParamType::kSignature,
                        identity_.sign(probe.signed_view()));
        probe.attach_hmac(a->keymat.hip_hmac_out);
        send_control(probe, a->peer_locator);
        ++stats_.keepalives_sent;
        arm_keepalive(*a);
      });
  assoc.keepalive_armed = true;
}

void HipDaemon::cancel_recovery_timers(Association& assoc) {
  auto& loop = node_->network().loop();
  if (assoc.rekey_timer_armed) {
    loop.cancel(assoc.rekey_timer);
    assoc.rekey_timer_armed = false;
  }
  if (assoc.grace_armed) {
    loop.cancel(assoc.grace_timer);
    assoc.grace_armed = false;
  }
  if (assoc.keepalive_armed) {
    loop.cancel(assoc.keepalive_timer);
    assoc.keepalive_armed = false;
  }
}

void HipDaemon::reset_association(Association& assoc) {
  cancel_retry(assoc);
  cancel_recovery_timers(assoc);
  if (assoc.sa_in != nullptr) spi_to_peer_.erase(assoc.spi_in);
  if (assoc.old_sa_in != nullptr) spi_to_peer_.erase(assoc.old_spi_in);
  assoc.sa_in.reset();
  assoc.sa_out.reset();
  assoc.old_sa_in.reset();
  assoc.spi_in = assoc.spi_out = assoc.old_spi_in = 0;
  assoc.rekey_in_flight = false;
  assoc.rekey_generation = 0;
  assoc.keepalive_misses = 0;
  assoc.locator_in_flight.reset();
  if (!assoc.pending.empty()) {
    stats_.pending_failed += assoc.pending.size();
    assoc.pending.clear();
  }
  // Peer locator and HI are kept: the next outbound packet re-triggers a
  // full BEX through shim_outbound, which is the recovery path.
  set_state(assoc, AssocState::kUnassociated);
}

// ---------------------------------------------------------------------------
// Teardown

void HipDaemon::close_association(const net::Ipv6Addr& peer_hit) {
  Association* assoc = find_assoc(peer_hit);
  if (assoc == nullptr || assoc->state != AssocState::kEstablished) return;
  set_state(*assoc, AssocState::kClosing);
  HipMessage close;
  close.type = MsgType::kClose;
  close.sender_hit = identity_.hit();
  close.receiver_hit = peer_hit;
  close.set_param(ParamType::kSignature, identity_.sign(close.signed_view()));
  close.attach_hmac(assoc->keymat.hip_hmac_out);
  send_control(close, assoc->peer_locator);
}

void HipDaemon::handle_close(const HipMessage& msg) {
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->sa_in == nullptr) return;
  if (!msg.check_hmac(assoc->keymat.hip_hmac_in)) {
    ++stats_.auth_failures;
    return;
  }
  HipMessage ack;
  ack.type = MsgType::kCloseAck;
  ack.sender_hit = identity_.hit();
  ack.receiver_hit = msg.sender_hit;
  ack.set_param(ParamType::kSignature, identity_.sign(ack.signed_view()));
  ack.attach_hmac(assoc->keymat.hip_hmac_out);
  send_control(ack, assoc->peer_locator);

  cancel_retry(*assoc);
  cancel_recovery_timers(*assoc);
  spi_to_peer_.erase(assoc->spi_in);
  if (assoc->old_sa_in != nullptr) spi_to_peer_.erase(assoc->old_spi_in);
  assocs_.erase(msg.sender_hit);
}

void HipDaemon::handle_close_ack(const HipMessage& msg) {
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->state != AssocState::kClosing) return;
  if (!msg.check_hmac(assoc->keymat.hip_hmac_in)) return;
  cancel_retry(*assoc);
  cancel_recovery_timers(*assoc);
  spi_to_peer_.erase(assoc->spi_in);
  if (assoc->old_sa_in != nullptr) spi_to_peer_.erase(assoc->old_spi_in);
  assocs_.erase(msg.sender_hit);
}

// ---------------------------------------------------------------------------
// Rendezvous

void HipDaemon::register_with_rvs(const net::Ipv6Addr& rvs_hit) {
  Association* assoc = find_assoc(rvs_hit);
  if (assoc == nullptr || assoc->state != AssocState::kEstablished) {
    // Establish first; establish() completes the registration.
    pending_rvs_targets_.insert(rvs_hit);
    initiate(rvs_hit);
    return;
  }
  HipMessage reg;
  reg.type = MsgType::kRvsRegister;
  reg.sender_hit = identity_.hit();
  reg.receiver_hit = rvs_hit;
  reg.set_param(ParamType::kSignature, identity_.sign(reg.signed_view()));
  reg.attach_hmac(assoc->keymat.hip_hmac_out);
  send_control(reg, assoc->peer_locator);
}

void HipDaemon::handle_rvs_register(const HipMessage& msg, const Packet& pkt) {
  if (!rvs_server_) return;
  Association* assoc = find_assoc(msg.sender_hit);
  if (assoc == nullptr || assoc->state != AssocState::kEstablished) return;
  if (!msg.check_hmac(assoc->keymat.hip_hmac_in)) {
    ++stats_.auth_failures;
    return;
  }
  rvs_registrations_[msg.sender_hit] = pkt.src;
  HipMessage ack;
  ack.type = MsgType::kRvsRegisterAck;
  ack.sender_hit = identity_.hit();
  ack.receiver_hit = msg.sender_hit;
  ack.attach_hmac(assoc->keymat.hip_hmac_out);
  send_control(ack, assoc->peer_locator);
}

}  // namespace hipcloud::hip
