#include "hip/esp.hpp"

#include <cstring>
#include <stdexcept>

#include "sim/check.hpp"

namespace hipcloud::hip {

using crypto::Bytes;
using crypto::BytesView;

namespace {
constexpr std::size_t kIvSize = 16;
constexpr std::size_t kIcvSize = 12;
constexpr std::size_t kFixedHeader = 4 + 4 + kIvSize;  // SPI | SEQ | IV

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}
}  // namespace

std::size_t esp_overhead(EspSuite suite) {
  // Fixed header + ICV + the 2-byte protected inner header, plus average
  // CBC padding where applicable.
  const std::size_t base = kFixedHeader + kIcvSize + 2;
  return suite == EspSuite::kAes128CbcSha256 ? base + 8 : base;
}

const char* esp_suite_name(EspSuite suite) {
  switch (suite) {
    case EspSuite::kNullSha256:
      return "NULL-SHA256";
    case EspSuite::kAes128CtrSha256:
      return "AES128-CTR-SHA256";
    case EspSuite::kAes128CbcSha256:
      return "AES128-CBC-SHA256";
  }
  return "?";
}

std::optional<EspSuite> esp_suite_from_wire(std::uint8_t byte) {
  const auto suite = static_cast<EspSuite>(byte);
  switch (suite) {
    case EspSuite::kNullSha256:
    case EspSuite::kAes128CtrSha256:
    case EspSuite::kAes128CbcSha256:
      return suite;
  }
  return std::nullopt;
}

EspSa::EspSa(std::uint32_t spi, EspSuite suite, BytesView enc_key,
             BytesView auth_key)
    : spi_(spi), suite_(suite), hmac_(auth_key), hmac_mb_(auth_key) {
  // An unknown suite would match no case of protect's or unprotect's
  // cipher switch and pass payloads in clear.
  if (!esp_suite_from_wire(static_cast<std::uint8_t>(suite))) {
    throw std::invalid_argument("EspSa: unknown suite");
  }
  if (suite != EspSuite::kNullSha256) {
    if (enc_key.size() < 16) {
      throw std::invalid_argument("EspSa: encryption key too short");
    }
    cipher_.emplace(enc_key.subspan(0, 16));
  }
}

void EspSa::compute_icv(BytesView spi_seq_iv_ct, std::uint8_t out[12]) {
  std::uint8_t mac[crypto::HmacSha256::kDigestSize];
  hmac_.reset();
  hmac_.update(spi_seq_iv_ct);
  hmac_.finish(mac);
  std::memcpy(out, mac, kIcvSize);
}

// hipcheck:hot
crypto::Buffer EspSa::protect_prepare(std::uint8_t inner_proto,
                                      std::uint8_t addr_mode,
                                      crypto::Buffer payload) {
  // In-place datapath: the ESP header and the 2-byte protected inner
  // header go into the payload buffer's headroom, CBC padding and the ICV
  // into its tailroom, and the payload is encrypted where it sits. When
  // the transport layer reserved enough room (TcpStack::transmit does),
  // the whole protect step touches zero allocations. (The seed
  // implementation made ~5 heap allocations per packet via
  // plaintext/ciphertext/icv temporaries; this is the hot loop behind the
  // paper's Fig. 2 ESP cost.)
  // Exhaustion is latched: once set it can only be cleared by replacing
  // the SA (rekey) or the seek_seq() test hook, and the counter must be
  // parked on the wrapped value while latched.
  HIPCLOUD_AUDIT(!exhausted_ || next_seq_ == 0,
                 "exhausted SA with live sequence counter");
  if (exhausted_) return {};
  if (next_seq_ == 0) {
    // 2^32 - 1 was the last valid sequence number. Wrapping to 0 would
    // blackhole the SA permanently (seq 0 is always rejected by the
    // peer's replay check), so refuse instead and let the caller rekey.
    exhausted_ = true;
    return {};
  }
  const std::size_t pt_len = 2 + payload.size();
  const std::size_t ct_len = suite_ == EspSuite::kAes128CbcSha256
                                 ? crypto::aes_cbc_padded_len(pt_len)
                                 : pt_len;
  payload.prepend(kFixedHeader + 2);
  payload.append((ct_len - pt_len) + kIcvSize);
  std::uint8_t* p = payload.data();
  store_be32(p, spi_);
  const std::uint32_t emitted_seq = next_seq_++;
  // No sequence number ever reaches the wire out of order, repeated, or
  // after exhaustion — the invariant RFC 4303's anti-replay contract and
  // the daemon's rekey logic both stand on. seek_seq() (the test hook)
  // moves the shadow along with the counter.
  HIPCLOUD_CHECK(emitted_seq == last_emitted_seq_ + 1,
                 "ESP outbound sequence not monotone");
  last_emitted_seq_ = emitted_seq;
  store_be32(p + 4, emitted_seq);

  // Deterministic per-SA IV: zero(4) | SPI(4) | counter(8) — never repeats
  // under one key (safe for CTR; fine for CBC in the simulator's threat
  // model).
  std::uint8_t* iv = p + 8;
  std::memset(iv, 0, 4);
  store_be32(iv + 4, spi_);
  store_be64(iv + 8, iv_counter_++);

  std::uint8_t* ct = p + kFixedHeader;
  ct[0] = inner_proto;
  ct[1] = addr_mode;
  switch (suite_) {
    case EspSuite::kNullSha256:
      break;
    case EspSuite::kAes128CtrSha256:
      // Counter block = IV[0..12) | IV[12..16) as the initial counter.
      cipher_->ctr_xor(iv, static_cast<std::uint32_t>(crypto::read_be(
                               BytesView(iv, kIvSize), 12, 4)),
                       ct, pt_len);
      break;
    case EspSuite::kAes128CbcSha256:
      crypto::aes_cbc_encrypt_inplace(*cipher_, iv, ct, pt_len);
      break;
  }

  return payload;
}

// hipcheck:hot
crypto::Buffer EspSa::protect_packet(std::uint8_t inner_proto,
                                     std::uint8_t addr_mode,
                                     crypto::Buffer payload) {
  crypto::Buffer wire =
      protect_prepare(inner_proto, addr_mode, std::move(payload));
  if (wire.empty()) return wire;
  std::uint8_t* p = wire.data();
  compute_icv(BytesView(p, wire.size() - kIcvSize),
              p + wire.size() - kIcvSize);
  return wire;
}

// hipcheck:hot
void EspSa::protect_batch(std::span<ProtectJob> jobs) {
  // Per-packet state (sequence numbers, IVs, encryption) is applied in
  // job order, so the wire bytes match sequential protect_packet() calls
  // exactly; only the ICVs are deferred and computed lanes-at-a-time.
  // Chunked so the MAC staging stays on the stack at any batch size.
  constexpr std::size_t kChunk = 2 * crypto::shamb::kMaxLanes;
  std::size_t at = 0;
  while (at < jobs.size()) {
    const std::size_t n = std::min(kChunk, jobs.size() - at);
    crypto::HmacSha256Mb::Job macs[kChunk];
    std::uint8_t tags[kChunk][crypto::HmacSha256Mb::kDigestSize];
    std::size_t nmac = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ProtectJob& job = jobs[at + i];
      job.buf = protect_prepare(job.inner_proto, job.addr_mode,
                                std::move(job.buf));
      if (job.buf.empty()) continue;  // exhausted mid-batch
      macs[nmac] = {job.buf.data(), job.buf.size() - kIcvSize, tags[nmac]};
      ++nmac;
    }
    hmac_mb_.compute(macs, nmac);
    nmac = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ProtectJob& job = jobs[at + i];
      if (job.buf.empty()) continue;
      std::memcpy(job.buf.data() + job.buf.size() - kIcvSize, tags[nmac],
                  kIcvSize);
      ++nmac;
    }
    at += n;
  }
}

Bytes EspSa::protect(std::uint8_t inner_proto, std::uint8_t addr_mode,
                     BytesView payload) {
  // Copying wrapper over the in-place path so the wire format has a
  // single source of truth (the golden vectors pin it). The staging
  // buffer reserves exactly the room protect_packet() needs, so the
  // wrapper costs two allocations total (staging + returned Bytes).
  const crypto::Buffer wire = protect_packet(
      inner_proto, addr_mode,
      crypto::Buffer(payload, kFixedHeader + 2,
                     kIcvSize + crypto::Aes::kBlockSize));
  return Bytes(wire.begin(), wire.end());
}

bool EspSa::replay_check_and_update(std::uint32_t seq) {
  // Replay-window monotonicity: the high-water mark only ever advances,
  // and only this function advances it. A mismatch against the shadow
  // means some other code path (or a regression like the
  // debug_rewind_replay_window() hook simulates) moved the window
  // backwards — at which point a span of already-accepted sequence
  // numbers would be accepted again.
  HIPCLOUD_AUDIT(highest_seq_ == audit_highest_seq_,
                 "ESP anti-replay window regressed");
  if (seq == 0) return false;
  if (seq > highest_seq_) {
    const std::uint32_t shift = seq - highest_seq_;
    replay_window_ = shift >= 64 ? 0 : replay_window_ << shift;
    replay_window_ |= 1;  // bit 0 = highest seq seen
    highest_seq_ = seq;
#ifdef HIPCLOUD_AUDIT_ENABLED
    audit_highest_seq_ = seq;
#endif
    return true;
  }
  const std::uint32_t offset = highest_seq_ - seq;
  if (offset >= 64) return false;  // too old
  const std::uint64_t bit = 1ULL << offset;
  if (replay_window_ & bit) return false;  // duplicate
  replay_window_ |= bit;
  return true;
}

// hipcheck:hot
std::optional<EspSa::UnprotectedPacket> EspSa::unprotect_packet(
    crypto::Buffer wire) {
  // Zero-copy decrypt: authenticate over the buffer's view, decrypt the
  // ciphertext region where it sits, then strip header/trailer with O(1)
  // window arithmetic. The payload bytes are never copied.
  const BytesView v = wire.view();
  if (v.size() < kFixedHeader + kIcvSize) return std::nullopt;
  const auto spi = static_cast<std::uint32_t>(crypto::read_be(v, 0, 4));
  if (spi != spi_) return std::nullopt;

  std::uint8_t expected_icv[kIcvSize];
  compute_icv(v.subspan(0, v.size() - kIcvSize), expected_icv);
  return finish_unprotect(std::move(wire), expected_icv);
}

// hipcheck:hot
void EspSa::unprotect_batch(std::span<UnprotectJob> jobs) {
  // Expected ICVs are pure functions of the wire bytes, so hoisting them
  // into one multi-buffer pass cannot change acceptance decisions; the
  // stateful pipeline (replay window, counters) then runs per packet in
  // job order, exactly as sequential unprotect_packet() calls would.
  constexpr std::size_t kChunk = 2 * crypto::shamb::kMaxLanes;
  std::size_t at = 0;
  while (at < jobs.size()) {
    const std::size_t n = std::min(kChunk, jobs.size() - at);
    crypto::HmacSha256Mb::Job macs[kChunk];
    std::uint8_t tags[kChunk][crypto::HmacSha256Mb::kDigestSize];
    bool eligible[kChunk];
    std::size_t nmac = 0;
    for (std::size_t i = 0; i < n; ++i) {
      UnprotectJob& job = jobs[at + i];
      const BytesView v = job.wire.view();
      eligible[i] =
          v.size() >= kFixedHeader + kIcvSize &&
          static_cast<std::uint32_t>(crypto::read_be(v, 0, 4)) == spi_;
      if (!eligible[i]) continue;
      macs[nmac] = {v.data(), v.size() - kIcvSize, tags[nmac]};
      ++nmac;
    }
    hmac_mb_.compute(macs, nmac);
    nmac = 0;
    for (std::size_t i = 0; i < n; ++i) {
      UnprotectJob& job = jobs[at + i];
      if (!eligible[i]) {
        job.result = std::nullopt;
        continue;
      }
      job.result = finish_unprotect(std::move(job.wire), tags[nmac]);
      ++nmac;
    }
    at += n;
  }
}

// hipcheck:hot
std::optional<EspSa::UnprotectedPacket> EspSa::finish_unprotect(
    crypto::Buffer wire, const std::uint8_t expected_icv[kIcvSize]) {
  const BytesView v = wire.view();
  const auto seq = static_cast<std::uint32_t>(crypto::read_be(v, 4, 4));
  if (!crypto::ct_equal(v.subspan(v.size() - kIcvSize),
                        BytesView(expected_icv, kIcvSize))) {
    ++auth_failures_;
    return std::nullopt;
  }
  if (!replay_check_and_update(seq)) {
    ++replay_drops_;
    return std::nullopt;
  }

  std::uint8_t* p = wire.data();
  const std::uint8_t* iv = p + 8;
  std::uint8_t* ct = p + kFixedHeader;
  const std::size_t ct_len = wire.size() - kFixedHeader - kIcvSize;
  std::size_t pt_len = ct_len;
  try {
    switch (suite_) {
      case EspSuite::kNullSha256:
        break;
      case EspSuite::kAes128CtrSha256:
        cipher_->ctr_xor(iv, static_cast<std::uint32_t>(crypto::read_be(
                                 BytesView(iv, kIvSize), 12, 4)),
                         ct, ct_len);
        break;
      case EspSuite::kAes128CbcSha256:
        pt_len = crypto::aes_cbc_decrypt_inplace(*cipher_, iv, ct, ct_len);
        break;
    }
  } catch (const std::runtime_error&) {
    ++auth_failures_;
    return std::nullopt;
  }
  if (pt_len < 2) return std::nullopt;

  UnprotectedPacket out;
  out.inner_proto = ct[0];
  out.addr_mode = ct[1];
  out.seq = seq;
  wire.pop_back(kIcvSize + (ct_len - pt_len));
  wire.pop_front(kFixedHeader + 2);
  out.payload = std::move(wire);
  return out;
}

std::optional<EspSa::Unprotected> EspSa::unprotect(BytesView wire) {
  // Copying wrapper over the in-place path (cold call sites and tests).
  auto r = unprotect_packet(crypto::Buffer(wire));
  if (!r) return std::nullopt;
  Unprotected out;
  out.inner_proto = r->inner_proto;
  out.addr_mode = r->addr_mode;
  out.payload.assign(r->payload.begin(), r->payload.end());
  out.seq = r->seq;
  return out;
}

}  // namespace hipcloud::hip
