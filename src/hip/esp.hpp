#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha_mb.hpp"
#include "net/packet.hpp"

namespace hipcloud::hip {

/// ESP transform suites negotiated in BEX (HIP_CIPHER). NULL keeps
/// integrity protection only — the paper notes HIP minimally
/// authenticates and typically also encrypts; the A3 ablation compares
/// these.
enum class EspSuite : std::uint8_t {
  kNullSha256 = 1,
  kAes128CtrSha256 = 2,  // default
  kAes128CbcSha256 = 3,
};

std::size_t esp_overhead(EspSuite suite);
const char* esp_suite_name(EspSuite suite);
/// The suite a wire byte (ESP_INFO) names, or nullopt for one outside
/// EspSuite.
std::optional<EspSuite> esp_suite_from_wire(std::uint8_t byte);

/// One direction of a BEET-mode ESP security association.
///
/// BEET ("bound end-to-end tunnel", RFC 5202) carries only the transport
/// payload plus a tiny trailer on the wire — the inner HIT/LSI addresses
/// are fixed per-SA and restored at the receiver, which is what makes it
/// cheaper than full tunnel mode. Wire format:
///   SPI(4) | SEQ(4) | IV(16) | ciphertext | ICV(12)
/// with ciphertext = ENC(proto(1) | addr_mode(1) | payload).
class EspSa {
 public:
  /// addr_mode values inside the protected header.
  static constexpr std::uint8_t kModeHit = 0;
  static constexpr std::uint8_t kModeLsi = 1;

  /// Throws std::invalid_argument for a suite outside EspSuite, or an
  /// encryption key shorter than 16 bytes for a ciphered suite.
  EspSa(std::uint32_t spi, EspSuite suite, crypto::BytesView enc_key,
        crypto::BytesView auth_key);

  std::uint32_t spi() const { return spi_; }
  EspSuite suite() const { return suite_; }

  /// Protect a transport payload for transmission. Sequence numbers
  /// increment per call. Once the 32-bit sequence space is spent the SA
  /// is exhausted: returns an empty buffer and sets exhausted() instead
  /// of wrapping to 0, which the peer's anti-replay window would reject
  /// forever (RFC 4303 forbids wrap; the daemon rekeys well before this).
  crypto::Bytes protect(std::uint8_t inner_proto, std::uint8_t addr_mode,
                        crypto::BytesView payload);

  /// Zero-copy variant: encapsulates in place in the payload's buffer —
  /// the ESP header and protected inner header go into the headroom,
  /// padding and ICV into the tailroom, and the payload bytes are
  /// encrypted where they sit. Wire bytes are identical to protect().
  /// Returns an empty buffer on exhaustion.
  crypto::Buffer protect_packet(std::uint8_t inner_proto,
                                std::uint8_t addr_mode,
                                crypto::Buffer payload);

  /// One unit of a protect_batch() call. `buf` holds the payload going in
  /// and the full wire packet coming out (empty if the SA exhausted
  /// before this job's sequence number was assigned).
  struct ProtectJob {
    std::uint8_t inner_proto = 0;
    std::uint8_t addr_mode = kModeHit;
    crypto::Buffer buf;
  };

  /// Batch variant of protect_packet(): headers, sequence numbers, IVs
  /// and encryption are applied per packet *in order* — the wire bytes
  /// are byte-identical to sequential protect_packet() calls — but the
  /// ICVs for the whole batch are computed in one multi-buffer HMAC pass
  /// (lane_width() packets per SIMD sweep). This is where the ESP send
  /// queue's per-tick packet bursts get their throughput.
  void protect_batch(std::span<ProtectJob> jobs);

  /// True once protect() has consumed the final sequence number. The SA
  /// can no longer send; only a rekey (fresh SA) recovers.
  bool exhausted() const { return exhausted_; }

  /// Sequence numbers left before exhaustion. (next_seq_ == 0 means the
  /// counter already wrapped; the next protect() will flag exhaustion.)
  std::uint64_t remaining_seq() const {
    if (exhausted_ || next_seq_ == 0) return 0;
    return 0x1'0000'0000ULL - next_seq_;
  }

  /// Test hook: jump the outbound sequence counter (e.g. to just below
  /// 2^32 - 1) without protecting billions of packets.
  void seek_seq(std::uint32_t seq) {
    next_seq_ = seq;
    exhausted_ = false;
    last_emitted_seq_ = seq == 0 ? 0xffffffffu : seq - 1;
  }

  /// Test hook for the audit-build regression suite: rewind the
  /// anti-replay high-water mark *without* the bookkeeping that
  /// legitimate paths do, simulating the class of replay-window
  /// regression HIPCLOUD_AUDIT exists to catch. The next unprotect()
  /// trips the window-monotonicity audit (audit builds only; in normal
  /// builds the SA just re-accepts a span of old sequence numbers).
  void debug_rewind_replay_window(std::uint32_t by) {
    highest_seq_ = by > highest_seq_ ? 0 : highest_seq_ - by;
  }

  struct Unprotected {
    std::uint8_t inner_proto;
    std::uint8_t addr_mode;
    crypto::Bytes payload;
    std::uint32_t seq;
  };

  /// Verify + decrypt + anti-replay-check an inbound ESP payload.
  /// Returns nullopt on authentication failure, replay, or malformed
  /// input. (Inbound SAs only; using one SA for both directions would
  /// desynchronize the replay window.)
  std::optional<Unprotected> unprotect(crypto::BytesView wire);

  struct UnprotectedPacket {
    std::uint8_t inner_proto;
    std::uint8_t addr_mode;
    crypto::Buffer payload;
    std::uint32_t seq;
  };

  /// Zero-copy variant of unprotect(): authenticates and decrypts in
  /// place, then strips the ESP header/trailer by shrinking the buffer
  /// window. Same acceptance behaviour and counters as unprotect().
  std::optional<UnprotectedPacket> unprotect_packet(crypto::Buffer wire);

  /// One unit of an unprotect_batch() call: `wire` is consumed, `result`
  /// mirrors what unprotect_packet() would have returned for it.
  struct UnprotectJob {
    crypto::Buffer wire;
    std::optional<UnprotectedPacket> result;
  };

  /// Batch variant of unprotect_packet(): expected ICVs for the whole
  /// batch come from one multi-buffer HMAC pass, then each packet runs
  /// the normal acceptance pipeline in order — auth failures, replay
  /// drops (including a window hit mid-batch), and counters behave
  /// exactly as sequential unprotect_packet() calls.
  void unprotect_batch(std::span<UnprotectJob> jobs);

  std::uint64_t replay_drops() const { return replay_drops_; }
  std::uint64_t auth_failures() const { return auth_failures_; }
  std::uint32_t next_seq() const { return next_seq_; }

 private:
  void compute_icv(crypto::BytesView spi_seq_iv_ct, std::uint8_t out[12]);
  bool replay_check_and_update(std::uint32_t seq);
  /// Everything protect_packet() does except the ICV: header, sequence
  /// number, IV, in-place encryption. Leaves kIcvSize reserved bytes at
  /// the tail for the caller (streaming or multi-buffer) to fill.
  crypto::Buffer protect_prepare(std::uint8_t inner_proto,
                                 std::uint8_t addr_mode,
                                 crypto::Buffer payload);
  /// The acceptance pipeline after the expected ICV is known: constant-
  /// time compare, replay window, decrypt, strip. Shared by the streaming
  /// and batch unprotect paths so counters/ordering can't diverge.
  std::optional<UnprotectedPacket> finish_unprotect(
      crypto::Buffer wire, const std::uint8_t expected_icv[12]);

  std::uint32_t spi_;
  EspSuite suite_;
  std::optional<crypto::Aes> cipher_;  // absent for NULL suite
  crypto::HmacSha256 hmac_;  // keyed once; reset per packet
  crypto::HmacSha256Mb hmac_mb_;  // same key; lanes for the batch paths
  std::uint32_t next_seq_ = 1;
  bool exhausted_ = false;
  std::uint64_t iv_counter_ = 1;

  // 64-entry sliding anti-replay window (RFC 4303 §3.4.3).
  std::uint32_t highest_seq_ = 0;
  std::uint64_t replay_window_ = 0;
  std::uint64_t replay_drops_ = 0;
  std::uint64_t auth_failures_ = 0;

  // Invariant shadows (src/sim/check.hpp). last_emitted_seq_ backs the
  // always-on send-monotonicity CHECK; audit_highest_seq_ is the
  // audit-build high-water shadow that catches a replay window moving
  // backwards between unprotect() calls.
  std::uint32_t last_emitted_seq_ = 0;
  std::uint32_t audit_highest_seq_ = 0;
};

}  // namespace hipcloud::hip
