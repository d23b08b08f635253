#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/cost_model.hpp"
#include "crypto/dh.hpp"
#include "crypto/drbg.hpp"
#include "hip/esp.hpp"
#include "hip/identity.hpp"
#include "hip/keymat.hpp"
#include "hip/puzzle.hpp"
#include "hip/wire.hpp"
#include "net/node.hpp"

namespace hipcloud::hip {

struct HipConfig {
  EspSuite esp_suite = EspSuite::kAes128CtrSha256;
  crypto::DhGroup dh_group = crypto::DhGroup::kModp1536;
  /// Responder puzzle difficulty K (bits); 0 disables the puzzle. At most
  /// kMaxPuzzleDifficulty, or the daemon refuses to construct.
  std::uint8_t puzzle_difficulty = 10;
  /// Raise K under I1 load (HIP's DoS defence, paper §IV-B): adds
  /// log2(r1_rate / adaptive_threshold_rps) bits, capped at +10 and at
  /// kMaxPuzzleDifficulty.
  bool adaptive_puzzle = false;
  double adaptive_threshold_rps = 50.0;
  /// BEX retransmission (I1/I2 timer).
  sim::Duration bex_retry = sim::from_millis(500);
  int bex_max_retries = 5;
  /// Virtual-time costs charged to the node's CPU for crypto work.
  crypto::CostModel costs;
  /// Our own LSI (HIPL convention assigns 1.0.0.1 to self).
  net::Ipv4Addr local_lsi = net::Ipv4Addr(1, 0, 0, 1);
  /// Rekey the ESP SAs once the outbound SA has this few sequence numbers
  /// left (RFC 4303 forbids seq wrap; 0 disables proactive rekeying —
  /// exhaustion still forces one).
  std::uint64_t esp_rekey_threshold = 0x10000;
  /// How long the superseded inbound SA keeps decoding in-flight packets
  /// after a rekey before its SPI is retired.
  sim::Duration rekey_grace = sim::kSecond;
  /// Established-state keepalive: probe the peer when nothing authentic
  /// has been heard for this long (0 disables dead-peer detection).
  sim::Duration keepalive_interval = 0;
  /// Unanswered probes tolerated before the association is torn back to
  /// kUnassociated (traffic then re-triggers BEX).
  int keepalive_max_misses = 3;
};

/// Association state (RFC 5201 §4.4, abbreviated).
enum class AssocState {
  kUnassociated,
  kI1Sent,
  kI2Sent,
  kEstablished,
  kClosing,
  kFailed,
};

const char* assoc_state_name(AssocState s);

/// Legal transition table for the association state machine — the BEX
/// ladder (kUnassociated → I1 → R1 → I2 → R2 → kEstablished, with the
/// responder jumping kUnassociated → kEstablished at I2 since it is
/// stateless until then), plus the retry, failure, re-BEX/reset,
/// rekey/readdress (which stay within kEstablished) and teardown paths.
/// Every state change in HipDaemon funnels through this predicate under
/// HIPCLOUD_AUDIT; tests drive illegal edges through
/// HipDaemon::debug_force_state() and expect the audit to trip.
bool legal_assoc_transition(AssocState from, AssocState to);

/// The HIP daemon: one per host. Implements the layer-3.5 shim that the
/// paper deploys inside VMs — intercepting traffic addressed to HITs and
/// LSIs, authenticating peers with the Base Exchange and protecting data
/// in BEET-mode ESP tunnels. Also provides UPDATE-based mobility,
/// rendezvous relaying, and HIT-based access control (hosts.allow/deny).
class HipDaemon {
 public:
  HipDaemon(net::Node* node, HostIdentity identity, HipConfig config = {});

  // --- identity & addressing ---------------------------------------------
  const HostIdentity& identity() const { return identity_; }
  const net::Ipv6Addr& hit() const { return identity_.hit(); }
  net::Ipv4Addr local_lsi() const { return config_.local_lsi; }
  net::Node* node() { return node_; }

  /// Teach the daemon a peer's current locator (the "hip hosts file"; in
  /// deployment this comes from DNS HIP records). Also assigns an LSI.
  net::Ipv4Addr add_peer(const net::Ipv6Addr& peer_hit,
                         const net::IpAddr& locator);
  std::optional<net::Ipv6Addr> peer_for_lsi(net::Ipv4Addr lsi) const;
  std::optional<net::Ipv4Addr> lsi_for_peer(const net::Ipv6Addr& hit) const;

  // --- access control ------------------------------------------------------
  /// hosts.allow analogue: explicitly permit a HIT.
  void allow(const net::Ipv6Addr& hit) { allowed_.insert(hit); }
  /// hosts.deny analogue: explicitly refuse a HIT.
  void deny(const net::Ipv6Addr& hit) { denied_.insert(hit); }
  /// Policy for HITs in neither list (default: accept).
  void set_default_accept(bool accept) { default_accept_ = accept; }
  bool is_authorized(const net::Ipv6Addr& hit) const;

  // --- association management ---------------------------------------------
  /// Force a Base Exchange now (normally triggered lazily by traffic).
  void initiate(const net::Ipv6Addr& peer_hit);
  AssocState state(const net::Ipv6Addr& peer_hit) const;
  /// Tear down an association with CLOSE / CLOSE_ACK.
  void close_association(const net::Ipv6Addr& peer_hit);

  /// Fires when an association reaches ESTABLISHED (test/metric hook).
  using EstablishedFn =
      std::function<void(const net::Ipv6Addr& peer_hit, sim::Duration bex_latency)>;
  void on_established(EstablishedFn fn) { on_established_ = std::move(fn); }

  /// Fires when move_to() announces a new locator — the hook the paper's
  /// future-work dynamic-DNS support needs (update the host's A/HIP
  /// records so re-contact after simultaneous movement works, §VII).
  using LocatorChangeFn = std::function<void(const net::IpAddr& new_locator)>;
  void on_locator_change(LocatorChangeFn fn) {
    on_locator_change_ = std::move(fn);
  }

  // --- mobility (RFC 5206) --------------------------------------------------
  /// Announce a new locator to every established peer and switch our
  /// outbound SAs over once the peer echoes the nonce back.
  void move_to(const net::IpAddr& new_locator);

  // --- rendezvous (RFC 5204) -----------------------------------------------
  void enable_rvs_server() { rvs_server_ = true; }
  /// Register with a rendezvous server (association must be established
  /// or establishable; registration rides on a signed RVS_REGISTER).
  void register_with_rvs(const net::Ipv6Addr& rvs_hit);

  // --- observability ---------------------------------------------------------
  struct Stats {
    std::uint64_t bex_initiated = 0;
    std::uint64_t bex_completed = 0;
    std::uint64_t bex_failed = 0;
    std::uint64_t esp_packets_out = 0;
    std::uint64_t esp_packets_in = 0;
    std::uint64_t esp_bytes_out = 0;
    std::uint64_t esp_bytes_in = 0;
    std::uint64_t acl_rejects = 0;
    std::uint64_t auth_failures = 0;
    std::uint64_t updates_processed = 0;
    std::uint64_t r1_sent = 0;
    /// R1s dropped unsolved because their puzzle asked for more than
    /// kMaxPuzzleDifficulty bits.
    std::uint64_t puzzle_too_hard = 0;
    /// I2, R2 and UPDATE messages dropped because their ESP_INFO named a
    /// suite outside EspSuite.
    std::uint64_t esp_suite_rejects = 0;
    /// Outbound packets discarded because the pre-BEX pending queue was
    /// full, and packets thrown away when an association failed or was
    /// torn down with traffic still queued.
    std::uint64_t pending_dropped = 0;
    std::uint64_t pending_failed = 0;
    /// SA rollover before sequence exhaustion.
    std::uint64_t rekeys_initiated = 0;
    std::uint64_t rekeys_completed = 0;
    std::uint64_t sa_exhausted_drops = 0;
    /// Dead-peer detection.
    std::uint64_t keepalives_sent = 0;
    std::uint64_t peer_failures = 0;
  };
  const Stats& stats() const { return stats_; }
  std::uint8_t current_puzzle_difficulty() const;
  const HipConfig& config() const { return config_; }

  /// Test hook: jump the outbound ESP sequence counter for `peer_hit`
  /// towards 2^32 so exhaustion/rekey paths can be exercised without
  /// protecting billions of packets. Returns false if no established SA.
  bool seek_esp_seq(const net::Ipv6Addr& peer_hit, std::uint32_t seq);

  /// Test hook: force the association state machine through the same
  /// validated set_state() path the protocol handlers use. An illegal
  /// edge trips the HIPCLOUD_AUDIT transition check in audit builds
  /// (sim::CheckFailure); in normal builds the state is set as asked —
  /// which is exactly the class of silent corruption the audit layer
  /// exists to surface. Creates the association if missing.
  void debug_force_state(const net::Ipv6Addr& peer_hit, AssocState to);

 private:
  class Shim;
  friend class Shim;

  struct Association {
    net::Ipv6Addr peer_hit;
    net::IpAddr peer_locator;
    crypto::Bytes peer_hi;
    AssocState state = AssocState::kUnassociated;
    Keymat keymat;
    std::unique_ptr<EspSa> sa_out;
    std::unique_ptr<EspSa> sa_in;
    std::uint32_t spi_out = 0;  // peer's inbound SPI — we send with it
    std::uint32_t spi_in = 0;   // our inbound SPI
    std::deque<net::Packet> pending;
    int retries = 0;
    sim::EventHandle retry_timer;
    bool retry_armed = false;
    sim::Time bex_start = 0;
    // Mobility handshake state (separate counters per direction so both
    // ends can move independently).
    std::uint64_t update_seq_out = 0;
    std::uint64_t update_seq_in_seen = 0;
    std::uint64_t echo_nonce = 0;
    std::optional<net::IpAddr> locator_in_flight;
    // Rekey (SA rollover before 2^32 seq exhaustion). The superseded
    // inbound SA stays in old_sa_in for a grace period so packets
    // protected just before the switch still decode.
    std::uint32_t rekey_generation = 0;
    bool rekey_in_flight = false;
    std::uint32_t rekey_new_spi_in = 0;
    int rekey_retries = 0;
    sim::EventHandle rekey_timer;
    bool rekey_timer_armed = false;
    std::uint64_t last_rekey_seq = 0;
    std::unique_ptr<EspSa> old_sa_in;
    std::uint32_t old_spi_in = 0;
    sim::EventHandle grace_timer;
    bool grace_armed = false;
    // Keepalive / dead-peer detection.
    sim::Time last_heard = 0;
    sim::EventHandle keepalive_timer;
    bool keepalive_armed = false;
    int keepalive_misses = 0;
    std::uint64_t keepalive_nonce = 0;
    bool pending_warn_logged = false;
  };

  // Shim/datapath.
  bool shim_outbound(net::Packet& pkt);
  void esp_send(Association& assoc, net::Packet&& pkt);
  void on_esp_packet(net::Packet&& pkt);
  void on_hip_packet(net::Packet&& pkt);

  /// Coalescing ESP send queue. esp_send() stages the packet here and
  /// charges the CPU as before; the first per-packet completion callback
  /// that finds its job still unprotected flushes the *whole* queue
  /// through EspSa::protect_batch() — TCP bursts hand the SA every packet
  /// queued in the same event tick as one multi-buffer ICV pass. Each
  /// callback then pops exactly one job (FIFO, 1:1 with the CPU charges),
  /// so event order, virtual time, and the determinism hash are identical
  /// to the sequential path at any lane count.
  struct EspOutJob {
    net::Ipv6Addr peer_hit;
    std::uint8_t inner_proto = 0;
    std::uint8_t addr_mode = 0;
    crypto::Buffer buf;       // payload until protected, then wire bytes
    bool protected_ = false;  // set by flush (empty buf + true: exhausted)
    bool skipped = false;     // assoc vanished before the flush
  };
  void flush_esp_out_queue();

  /// Coalescing ESP receive queue — the unprotect mirror of the send
  /// queue above. on_esp_packet() stages the wire bytes here and charges
  /// the CPU exactly as the sequential path did; the first per-packet
  /// completion that finds its job still wrapped flushes the whole queue
  /// through EspSa::unprotect_batch() (grouped per inbound SA, queue
  /// order within each group, so replay-window updates land in the same
  /// order as sequential unprotect_packet() calls). Each completion then
  /// pops exactly one job FIFO — charge count and order are untouched,
  /// so the determinism hash is identical to the unbatched path.
  struct EspInJob {
    net::Ipv6Addr peer_hit;
    std::uint32_t spi = 0;
    std::size_t wire_size = 0;
    crypto::Buffer wire;  // consumed by the flush
    std::optional<EspSa::UnprotectedPacket> result;
    bool unprotected = false;  // flush ran (empty result: auth/replay drop)
    bool skipped = false;      // SA vanished before the flush
  };
  void flush_esp_in_queue();
  /// The inbound SA a wire packet with `spi` decodes against (the live
  /// SA, or the rekey grace-period SA), nullptr when neither matches.
  EspSa* resolve_in_sa(Association* assoc, std::uint32_t spi);

  // BEX.
  void send_i1(Association& assoc);
  void handle_i1(const HipMessage& msg, const net::Packet& pkt);
  void handle_r1(const HipMessage& msg, const net::Packet& pkt);
  void handle_i2(const HipMessage& msg, const net::Packet& pkt);
  void handle_r2(const HipMessage& msg, const net::Packet& pkt);
  void establish(Association& assoc, sim::Duration latency);
  void fail_association(Association& assoc);
  void arm_retry(Association& assoc);
  void cancel_retry(Association& assoc);

  // Mobility / teardown / rendezvous.
  void handle_update(const HipMessage& msg, const net::Packet& pkt);
  void handle_close(const HipMessage& msg);
  void handle_close_ack(const HipMessage& msg);
  void handle_rvs_register(const HipMessage& msg, const net::Packet& pkt);

  // Recovery: rekey, dead-peer detection, teardown.
  void start_rekey(Association& assoc);
  void send_rekey_update(Association& assoc);
  void retire_old_sa_in(Association& assoc);
  void arm_keepalive(Association& assoc);
  void reset_association(Association& assoc);
  void cancel_recovery_timers(Association& assoc);

  // Invariants (src/sim/check.hpp). Every state change funnels through
  // set_state, which audits the edge against legal_assoc_transition()
  // and the per-state structural invariants (established implies live
  // SAs, old-SA drain lifecycle, rekey flags).
  void set_state(Association& assoc, AssocState to);
  void audit_association(const Association& assoc) const;

  // Helpers.
  /// An ESP_INFO parameter: the sender's inbound SPI and its suite.
  struct EspInfo {
    std::uint32_t spi = 0;
    EspSuite suite = EspSuite::kAes128CtrSha256;
  };
  /// nullopt when `param` is missing or malformed, or names a suite
  /// outside EspSuite (counted in Stats::esp_suite_rejects).
  std::optional<EspInfo> parse_esp_info(const crypto::Bytes* param);
  /// Point the association at a fresh SA pair keyed from its keymat's
  /// current ESP keys: outbound on the peer's SPI and suite, inbound on
  /// `spi_in`.
  void install_sas(Association& assoc, const EspInfo& peer,
                   std::uint32_t spi_in);
  Association& assoc_for(const net::Ipv6Addr& peer_hit);
  Association* find_assoc(const net::Ipv6Addr& peer_hit);
  const Association* find_assoc(const net::Ipv6Addr& peer_hit) const;
  void send_control(const HipMessage& msg, const net::IpAddr& dst,
                    std::optional<net::IpAddr> src = std::nullopt);
  template <typename F>
  void charge(double cycles, F&& then) {
    node_->cpu().run(cycles, std::forward<F>(then));
  }
  std::uint32_t fresh_spi();
  double sign_cycles() const;
  double verify_cycles(crypto::BytesView peer_hi) const;
  double dh_cycles() const;
  double esp_cycles(std::size_t bytes) const;
  void note_r1_sent();
  HipMessage build_r1(const net::Ipv6Addr& initiator_hit);

  net::Node* node_;
  HostIdentity identity_;
  HipConfig config_;
  crypto::HmacDrbg drbg_;
  crypto::DhKeyPair dh_;

  std::map<net::Ipv6Addr, Association> assocs_;
  std::map<std::uint32_t, net::Ipv6Addr> spi_to_peer_;
  std::map<net::Ipv4Addr, net::Ipv6Addr> lsi_to_hit_;
  std::map<net::Ipv6Addr, net::Ipv4Addr> hit_to_lsi_;
  std::uint8_t next_lsi_octet_ = 2;

  std::set<net::Ipv6Addr> allowed_;
  std::set<net::Ipv6Addr> denied_;
  bool default_accept_ = true;

  bool rvs_server_ = false;
  std::map<net::Ipv6Addr, net::IpAddr> rvs_registrations_;
  std::set<net::Ipv6Addr> pending_rvs_targets_;  // register once established

  std::uint64_t puzzle_i_;
  std::deque<sim::Time> recent_r1_times_;  // adaptive puzzle load window

  std::deque<EspOutJob> esp_out_queue_;
  std::deque<EspInJob> esp_in_queue_;
  // Flush scratch, reused across batches and emptied after each one.
  std::vector<EspSa::ProtectJob> esp_out_batch_;
  std::vector<EspSa::UnprotectJob> esp_in_batch_;
  std::vector<std::size_t> esp_batch_positions_;

  Stats stats_;
  EstablishedFn on_established_;
  LocatorChangeFn on_locator_change_;
  // Locator add seen but not yet announced (the announce is deferred one
  // event so the caller can finish installing routes first).
  std::optional<net::IpAddr> readdress_pending_;
};

}  // namespace hipcloud::hip
