// Multi-buffer SHA-256 backend: one independent message per SIMD lane,
// compressed in lock-step. The kernels keep the eight working variables
// as vectors-of-lanes (transposed form), so each vector instruction
// advances every message by one round — throughput scales with lane
// count rather than with the (serial) dependency chain of one hash.
//
// Tiering: 8 lanes under AVX2, 2 interleaved SHA-NI streams when the CPU
// has the SHA extensions (shani::compress2 — faster than the transposed
// tier there), and a per-lane fallback through sha256_backend::compress.
// Everything here is allocation-free: the ESP batch path runs through
// HmacSha256Mb::compute on the per-packet hot path.

#include "crypto/sha_mb.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "crypto/sha_ni.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define HIPCLOUD_HAS_SHAMB 1
#include <immintrin.h>
#else
#define HIPCLOUD_HAS_SHAMB 0
#endif

namespace hipcloud::crypto::shamb {

namespace {

constexpr std::uint32_t kRoundK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

#if HIPCLOUD_HAS_SHAMB

// ---- 8-lane AVX2 kernel ----------------------------------------------------

#define SHAMB_AVX2 __attribute__((target("avx2")))

// Macros (not inline helpers) so the shift counts stay integer literals —
// GCC's unoptimized intrinsic macros demand immediates.
#define MB8_ROTR(x, n) \
  _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - (n)))
#define MB8_XOR3(x, y, z) _mm256_xor_si256(_mm256_xor_si256(x, y), z)
#define MB8_BSIG0(x) MB8_XOR3(MB8_ROTR(x, 2), MB8_ROTR(x, 13), MB8_ROTR(x, 22))
#define MB8_BSIG1(x) MB8_XOR3(MB8_ROTR(x, 6), MB8_ROTR(x, 11), MB8_ROTR(x, 25))
#define MB8_SSIG0(x) \
  MB8_XOR3(MB8_ROTR(x, 7), MB8_ROTR(x, 18), _mm256_srli_epi32(x, 3))
#define MB8_SSIG1(x) \
  MB8_XOR3(MB8_ROTR(x, 17), MB8_ROTR(x, 19), _mm256_srli_epi32(x, 10))
// 8x8 32-bit transpose, in place (unpack within 128-bit halves, then
// recombine halves with permute2x128).
#define MB8_T8X8(r0, r1, r2, r3, r4, r5, r6, r7)       \
  do {                                                 \
    const __m256i t0 = _mm256_unpacklo_epi32(r0, r1);  \
    const __m256i t1 = _mm256_unpackhi_epi32(r0, r1);  \
    const __m256i t2 = _mm256_unpacklo_epi32(r2, r3);  \
    const __m256i t3 = _mm256_unpackhi_epi32(r2, r3);  \
    const __m256i t4 = _mm256_unpacklo_epi32(r4, r5);  \
    const __m256i t5 = _mm256_unpackhi_epi32(r4, r5);  \
    const __m256i t6 = _mm256_unpacklo_epi32(r6, r7);  \
    const __m256i t7 = _mm256_unpackhi_epi32(r6, r7);  \
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);  \
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);  \
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);  \
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);  \
    const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);  \
    const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);  \
    const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);  \
    const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);  \
    r0 = _mm256_permute2x128_si256(u0, u4, 0x20);      \
    r1 = _mm256_permute2x128_si256(u1, u5, 0x20);      \
    r2 = _mm256_permute2x128_si256(u2, u6, 0x20);      \
    r3 = _mm256_permute2x128_si256(u3, u7, 0x20);      \
    r4 = _mm256_permute2x128_si256(u0, u4, 0x31);      \
    r5 = _mm256_permute2x128_si256(u1, u5, 0x31);      \
    r6 = _mm256_permute2x128_si256(u2, u6, 0x31);      \
    r7 = _mm256_permute2x128_si256(u3, u7, 0x31);      \
  } while (0)

SHAMB_AVX2 void compress8_avx2(std::uint32_t (*states)[8],
                               const std::uint8_t* const* blocks,
                               std::size_t nblocks) {
  const __m256i bswap = _mm256_setr_epi8(
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  // Each state row is exactly one __m256i; transpose rows -> variables.
  __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[0]));
  __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[1]));
  __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[2]));
  __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[3]));
  __m256i e = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[4]));
  __m256i f = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[5]));
  __m256i g = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[6]));
  __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states[7]));
  MB8_T8X8(a, b, c, d, e, f, g, h);

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const __m256i sa = a, sb = b, sc = c, sd = d;
    const __m256i se = e, sf = f, sg = g, sh = h;

    __m256i w[16];
    for (int half = 0; half < 2; ++half) {
      __m256i m[8];
      for (int l = 0; l < 8; ++l) {
        m[l] = _mm256_shuffle_epi8(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                blocks[l] + 64 * blk + 32 * half)),
            bswap);
      }
      MB8_T8X8(m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]);
      for (int i = 0; i < 8; ++i) w[8 * half + i] = m[i];
    }

    for (int i = 0; i < 64; ++i) {
      if (i >= 16) {
        w[i & 15] = _mm256_add_epi32(
            _mm256_add_epi32(MB8_SSIG0(w[(i - 15) & 15]), w[(i - 7) & 15]),
            _mm256_add_epi32(MB8_SSIG1(w[(i - 2) & 15]), w[i & 15]));
      }
      const __m256i wk = _mm256_add_epi32(
          w[i & 15], _mm256_set1_epi32(static_cast<int>(kRoundK[i])));
      const __m256i ch =
          _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
      const __m256i t1 = _mm256_add_epi32(_mm256_add_epi32(h, MB8_BSIG1(e)),
                                          _mm256_add_epi32(ch, wk));
      const __m256i maj = _mm256_xor_si256(
          _mm256_and_si256(_mm256_xor_si256(a, b), c), _mm256_and_si256(a, b));
      const __m256i t2 = _mm256_add_epi32(MB8_BSIG0(a), maj);
      h = g; g = f; f = e; e = _mm256_add_epi32(d, t1);
      d = c; c = b; b = a; a = _mm256_add_epi32(t1, t2);
    }

    a = _mm256_add_epi32(a, sa); b = _mm256_add_epi32(b, sb);
    c = _mm256_add_epi32(c, sc); d = _mm256_add_epi32(d, sd);
    e = _mm256_add_epi32(e, se); f = _mm256_add_epi32(f, sf);
    g = _mm256_add_epi32(g, sg); h = _mm256_add_epi32(h, sh);
  }

  MB8_T8X8(a, b, c, d, e, f, g, h);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[0]), a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[1]), b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[2]), c);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[3]), d);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[4]), e);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[5]), f);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[6]), g);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(states[7]), h);
}

#endif  // HIPCLOUD_HAS_SHAMB

// Widest tier the hardware (and HIPCLOUD_NO_SHAMB) allow — independent
// of whether we'd *choose* it.
std::size_t hw_simd_width() {
  static const std::size_t width = [] {
    if (std::getenv("HIPCLOUD_NO_SHAMB") != nullptr) return std::size_t{1};
#if HIPCLOUD_HAS_SHAMB
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return std::size_t{8};
    // Width 2 is not a transposed tier: it is two interleaved SHA-NI
    // streams (shani::compress2), so it needs the SHA extensions.
    if (shani::supported()) return std::size_t{2};
#endif
    return std::size_t{1};
  }();
  return width;
}

// The tier actually used when no test cap forces one. On SHA-NI parts the
// single-stream kernel already outruns 8 transposed AVX2 lanes (measured
// ~1.25x over AVX2-x8 here), and interleaving two independent streams
// per pass hides the sha256rnds2 latency chain on top of that — so
// batches run two lanes at a time through shani::compress2; the AVX2
// tier carries pre-SHA-NI hosts.
std::size_t preferred_width() {
  static const std::size_t width = [] {
    const std::size_t hw = hw_simd_width();
    return hw > 1 && shani::supported() ? std::size_t{2} : hw;
  }();
  return width;
}

// In-process override for tests (0 = no override).
std::atomic<std::size_t> g_test_cap{0};

}  // namespace

std::size_t lane_width() {
  const std::size_t cap = g_test_cap.load(std::memory_order_relaxed);
  if (cap == 0) return preferred_width();
  // A test cap selects a tier outright (so the AVX2 kernel is testable on
  // SHA-NI hosts, where the preferred width is 2): >=8 the AVX2 tier, >=2
  // the dual-stream SHA-NI pair, below that single-stream — always
  // bounded by what the hardware and HIPCLOUD_NO_SHAMB allow.
  const std::size_t tier =
      cap >= 8 ? 8 : (cap >= 2 && shani::supported()) ? 2 : 1;
  return std::min(tier, hw_simd_width());
}

void set_lane_cap_for_test(std::size_t cap) {
  g_test_cap.store(cap, std::memory_order_relaxed);
}

const char* active_name() {
  switch (lane_width()) {
    case 8: return "avx2-x8";
    case 2: return "sha-ni-x2";
    // Width 1 runs lanes through the single-stream backend — report
    // which one ("sha-ni" or "scalar").
    default: return sha256_backend::active_name();
  }
}

void compress_blocks(std::uint32_t (*states)[8],
                     const std::uint8_t* const* blocks, std::size_t nlanes,
                     std::size_t nblocks) {
  if (nblocks == 0 || nlanes == 0) return;
  std::size_t done = 0;
  const std::size_t width = lane_width();
#if HIPCLOUD_HAS_SHAMB
  while (width >= 8 && nlanes - done >= 8) {
    compress8_avx2(states + done, blocks + done, nblocks);
    done += 8;
  }
#endif
  // Remaining lanes — the width-2 tier and any remainder of the AVX2
  // tier — run pairwise through the dual-stream SHA-NI kernel when the
  // CPU has it (width 1 means single-stream was forced, so stay off it
  // there).
  if (width >= 2 && shani::supported()) {
    while (nlanes - done >= 2) {
      shani::compress2(states[done], blocks[done], states[done + 1],
                       blocks[done + 1], nblocks);
      done += 2;
    }
  }
  // A last odd lane (and the no-SIMD tier) runs one at a time through
  // the single-stream backend — SHA-NI when the CPU has it.
  for (; done < nlanes; ++done) {
    sha256_backend::compress(states[done], blocks[done], nblocks);
  }
}

}  // namespace hipcloud::crypto::shamb

namespace hipcloud::crypto {

namespace {

void store_be32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

// hipcheck:hot
void HmacSha256Mb::compute(Job* jobs, std::size_t njobs) const {
  const Sha256::Midstate& inner = mac_.inner_midstate();
  const Sha256::Midstate& outer = mac_.outer_midstate();
  constexpr std::size_t kW = shamb::kMaxLanes;

  std::size_t j = 0;
  while (j < njobs) {
    const std::size_t n = std::min(shamb::lane_width(), njobs - j);

    // Per-lane plumbing, all on the stack: SHA state, the padded tail
    // (last partial block + 0x80 + length, at most two blocks), and the
    // cursor over data-then-tail.
    std::uint32_t states[kW][8];
    std::uint32_t inner_h[kW][8];
    std::uint8_t tails[kW][2 * Sha256::kBlockSize];
    const std::uint8_t* ptrs[kW];
    std::size_t data_blocks[kW];  // full 64-byte blocks still in `data`
    std::size_t left[kW];         // total blocks (data + tail) remaining

    for (std::size_t l = 0; l < n; ++l) {
      const Job& job = jobs[j + l];
      for (int i = 0; i < 8; ++i) states[l][i] = inner.h[i];
      data_blocks[l] = job.len / Sha256::kBlockSize;
      const std::size_t rem = job.len % Sha256::kBlockSize;
      const std::size_t tail_blocks = rem + 1 + 8 <= Sha256::kBlockSize ? 1 : 2;
      std::memset(tails[l], 0, sizeof tails[l]);
      if (rem > 0) {
        std::memcpy(tails[l], job.data + job.len - rem, rem);
      }
      tails[l][rem] = 0x80;
      const std::uint64_t bits = (inner.processed_bytes + job.len) * 8;
      std::uint8_t* lenp = tails[l] + 64 * tail_blocks - 8;
      for (int i = 0; i < 8; ++i) {
        lenp[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
      }
      left[l] = data_blocks[l] + tail_blocks;
      ptrs[l] = data_blocks[l] > 0 ? job.data : tails[l];
    }

    // Inner pass, lock-step. Each round compresses `step` blocks on every
    // lane, where `step` is the largest contiguous run all lanes can
    // serve (whole data region for equal-length batches — the common ESP
    // case — so the SIMD kernels amortize their transposes). Lanes that
    // finish early have their state snapshotted and then grind their tail
    // block as dummy work; no compaction, no pointer fix-ups.
    std::size_t live = n;
    while (live > 0) {
      std::size_t step = SIZE_MAX;
      for (std::size_t l = 0; l < n; ++l) {
        const std::size_t avail =
            left[l] == 0 ? 1 : (data_blocks[l] > 0 ? data_blocks[l] : left[l]);
        step = std::min(step, avail);
      }
      shamb::compress_blocks(states, ptrs, n, step);
      for (std::size_t l = 0; l < n; ++l) {
        if (left[l] == 0) continue;  // dummy lane, state is scratch now
        left[l] -= step;
        if (left[l] == 0) {
          std::memcpy(inner_h[l], states[l], sizeof inner_h[l]);
          ptrs[l] = tails[l];  // keep the dummy reads in bounds
          --live;
        } else if (data_blocks[l] > 0) {
          data_blocks[l] -= step;
          ptrs[l] = data_blocks[l] > 0 ? ptrs[l] + 64 * step : tails[l];
        } else {
          ptrs[l] += 64 * step;  // advancing within the 2-block tail
        }
      }
    }

    // Outer pass: HMAC's outer message is always digest(32) + padding =
    // exactly one block per lane, so this is a single uniform step.
    std::uint8_t outer_blocks[kW][Sha256::kBlockSize];
    for (std::size_t l = 0; l < n; ++l) {
      std::memset(outer_blocks[l], 0, sizeof outer_blocks[l]);
      for (int i = 0; i < 8; ++i) {
        store_be32(outer_blocks[l] + 4 * i, inner_h[l][i]);
      }
      outer_blocks[l][32] = 0x80;
      const std::uint64_t bits = (outer.processed_bytes + 32) * 8;
      for (int i = 0; i < 8; ++i) {
        outer_blocks[l][56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
      }
      for (int i = 0; i < 8; ++i) states[l][i] = outer.h[i];
      ptrs[l] = outer_blocks[l];
    }
    shamb::compress_blocks(states, ptrs, n, 1);
    for (std::size_t l = 0; l < n; ++l) {
      for (int i = 0; i < 8; ++i) {
        store_be32(jobs[j + l].mac + 4 * i, states[l][i]);
      }
    }

    j += n;
  }
}

}  // namespace hipcloud::crypto
