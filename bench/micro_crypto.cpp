// Ablation A6: microbenchmarks of the from-scratch crypto primitives
// (real wall-clock performance of this implementation, complementing the
// calibrated virtual-time cost model in crypto::CostModel).

#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/bigint.hpp"
#include "crypto/dh.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec_p256.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_mb.hpp"
#include "hip/esp.hpp"
#include "hip/puzzle.hpp"

namespace {

using namespace hipcloud;
using crypto::Bytes;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1500)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1500);

void BM_HmacSha256Streaming(benchmark::State& state) {
  // Keyed once, reset per message — the per-packet path EspSa and the TLS
  // record layer use (no key rehash, no concat temporaries).
  crypto::HmacSha256 hmac{crypto::BytesView(Bytes(32, 0x11))};
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  std::uint8_t mac[crypto::HmacSha256::kDigestSize];
  for (auto _ : state) {
    hmac.reset();
    hmac.update(data);
    hmac.finish(mac);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256Streaming)->Arg(64)->Arg(1500);

void BM_HmacSha256StreamingScalar(benchmark::State& state) {
  // Same streaming path with the SHA-256 compress forced to the portable
  // scalar backend — the "before" yardstick for SHA-NI.
  crypto::sha256_backend::set_for_test(crypto::sha256_backend::Kind::kScalar);
  crypto::HmacSha256 hmac{crypto::BytesView(Bytes(32, 0x11))};
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  std::uint8_t mac[crypto::HmacSha256::kDigestSize];
  for (auto _ : state) {
    hmac.reset();
    hmac.update(data);
    hmac.finish(mac);
    benchmark::DoNotOptimize(mac);
  }
  crypto::sha256_backend::set_for_test(crypto::sha256_backend::Kind::kAuto);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256StreamingScalar)->Arg(64)->Arg(1500);

void BM_HmacSha256MultiBuffer(benchmark::State& state) {
  // N independent 1500-byte ICVs per compute() call, lanes capped at
  // range(0): 1 = per-lane fallback, 2 = dual-stream SHA-NI tier, 8 =
  // AVX2 tier. Caps above the host's detected width silently clamp, so
  // every arg runs.
  const auto cap = static_cast<std::size_t>(state.range(0));
  crypto::shamb::set_lane_cap_for_test(cap);
  const std::size_t lanes = crypto::shamb::lane_width();
  const crypto::HmacSha256Mb mb{crypto::BytesView(Bytes(32, 0x11))};
  std::vector<Bytes> msgs(lanes, Bytes(1500, 0xab));
  std::vector<std::array<std::uint8_t, 32>> tags(lanes);
  std::vector<crypto::HmacSha256Mb::Job> jobs(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    jobs[l] = {msgs[l].data(), msgs[l].size(), tags[l].data()};
  }
  for (auto _ : state) {
    mb.compute(jobs.data(), lanes);
    benchmark::DoNotOptimize(tags.data());
  }
  crypto::shamb::set_lane_cap_for_test(0);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes) * 1500);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
  state.counters["lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_HmacSha256MultiBuffer)->Arg(1)->Arg(2)->Arg(8);

void BM_AesCtr(benchmark::State& state) {
  const crypto::Aes aes(Bytes(16, 0x22));
  const Bytes nonce(12, 0x33);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_ctr(aes, nonce, 1, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(64)->Arg(1500)->Arg(16384);

void BM_AesCtrInPlace(benchmark::State& state) {
  const crypto::Aes aes(Bytes(16, 0x22));
  const std::uint8_t nonce[12] = {0x33};
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    aes.ctr_xor(nonce, 1, data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrInPlace)->Arg(1500)->Arg(16384);

void BM_AesCbcEncrypt(benchmark::State& state) {
  const crypto::Aes aes(Bytes(16, 0x22));
  const Bytes iv(16, 0x44);
  const Bytes data(1500, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_cbc_encrypt(aes, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_AesCbcEncrypt);

void BM_AesCbcDecrypt(benchmark::State& state) {
  const crypto::Aes aes(Bytes(16, 0x22));
  const Bytes iv(16, 0x44);
  const Bytes ct = crypto::aes_cbc_encrypt(aes, iv, Bytes(1500, 0xab));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes_cbc_decrypt(aes, iv, ct));
  }
  state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_AesCbcDecrypt);

void BM_EspProtect(benchmark::State& state) {
  hip::EspSa sa(0xabcd1234, hip::EspSuite::kAes128CtrSha256, Bytes(16, 0x11),
                Bytes(32, 0x22));
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.protect(6, hip::EspSa::kModeHit, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EspProtect)->Arg(64)->Arg(1024);

void BM_EspProtectBatch(benchmark::State& state) {
  // One event tick's worth of packets (range(0) of them, 1 KiB each)
  // through protect_batch: encryption per packet, ICVs scheduled across
  // SIMD lanes. Items/s is the per-packet rate to compare with
  // BM_EspProtect.
  hip::EspSa sa(0xabcd1234, hip::EspSuite::kAes128CtrSha256, Bytes(16, 0x11),
                Bytes(32, 0x22));
  const Bytes payload(1024, 0x5a);
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<hip::EspSa::ProtectJob> jobs(batch);
  for (auto _ : state) {
    for (auto& job : jobs) {
      job = {6, hip::EspSa::kModeHit, crypto::Buffer(payload, 26, 28)};
    }
    sa.protect_batch(std::span(jobs));
    benchmark::DoNotOptimize(jobs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch) * 1024);
}
BENCHMARK(BM_EspProtectBatch)->Arg(1)->Arg(8)->Arg(16);

void BM_EspRoundTrip(benchmark::State& state) {
  hip::EspSa out_sa(0xabcd1234, hip::EspSuite::kAes128CtrSha256,
                    Bytes(16, 0x11), Bytes(32, 0x22));
  hip::EspSa in_sa(0xabcd1234, hip::EspSuite::kAes128CtrSha256,
                   Bytes(16, 0x11), Bytes(32, 0x22));
  const Bytes payload(1024, 0x5a);
  for (auto _ : state) {
    const Bytes wire = out_sa.protect(6, hip::EspSa::kModeHit, payload);
    benchmark::DoNotOptimize(in_sa.unprotect(wire));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EspRoundTrip);

void BM_RsaSign(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  const auto key =
      crypto::rsa_generate(drbg, static_cast<std::size_t>(state.range(0)));
  const Bytes msg = crypto::to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign_pkcs1(key.priv, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  const auto key =
      crypto::rsa_generate(drbg, static_cast<std::size_t>(state.range(0)));
  const Bytes msg = crypto::to_bytes("benchmark message");
  const Bytes sig = crypto::rsa_sign_pkcs1(key.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify_pkcs1(key.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_ModExp(benchmark::State& state) {
  // One full-width exponentiation modulo an odd range(0)-bit modulus, the
  // shape of every public-key operation: 512 bits for Miller-Rabin and
  // the RSA-1024 CRT halves, 1024 for verify/encrypt, 1536 for the BEX
  // Diffie-Hellman group.
  const auto bits = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg drbg(1, "bench-modexp");
  crypto::BigInt m = crypto::BigInt::random_bits(drbg, bits);
  m.set_bit(0);
  const crypto::BigInt base = crypto::BigInt::random_below(drbg, m);
  const crypto::BigInt exp = crypto::BigInt::random_bits(drbg, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.mod_exp(exp, m));
  }
}
BENCHMARK(BM_ModExp)->Arg(512)->Arg(1024)->Arg(1536)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_GeneratePrime(benchmark::State& state) {
  // generate_prime is not memoised (rsa_generate is): each iteration
  // draws a fresh prime from its own seed, so every run times the same
  // 16 searches, trial division and Miller-Rabin included.
  const auto bits = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    crypto::HmacDrbg drbg(++seed, "bench-prime");
    benchmark::DoNotOptimize(crypto::BigInt::generate_prime(drbg, bits));
  }
}
BENCHMARK(BM_GeneratePrime)->Arg(512)->Iterations(16)
    ->Unit(benchmark::kMillisecond);

void BM_EcdsaSign(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  const auto key = crypto::p256::generate(drbg);
  const Bytes msg = crypto::to_bytes("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::p256::ecdsa_sign(key.private_scalar, drbg, msg));
  }
}
BENCHMARK(BM_EcdsaSign)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerify(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  const auto key = crypto::p256::generate(drbg);
  const Bytes msg = crypto::to_bytes("benchmark message");
  const auto sig = crypto::p256::ecdsa_sign(key.private_scalar, drbg, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::p256::ecdsa_verify(key.public_point, msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify)->Unit(benchmark::kMicrosecond);

void BM_DhExchange(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  const crypto::DhKeyPair a(crypto::DhGroup::kModp1536, drbg);
  const crypto::DhKeyPair b(crypto::DhGroup::kModp1536, drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.compute_shared(b.public_value()));
  }
}
BENCHMARK(BM_DhExchange)->Unit(benchmark::kMicrosecond);

void BM_PuzzleSolve(benchmark::State& state) {
  const auto hit_i = net::Ipv6Addr::parse("2001:10::1");
  const auto hit_r = net::Ipv6Addr::parse("2001:10::2");
  std::uint64_t i = 0;
  for (auto _ : state) {
    const hip::Puzzle puzzle{static_cast<std::uint8_t>(state.range(0)), ++i};
    benchmark::DoNotOptimize(puzzle.solve(hit_i, hit_r));
  }
}
BENCHMARK(BM_PuzzleSolve)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_HmacDrbg(benchmark::State& state) {
  crypto::HmacDrbg drbg(1, "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.generate(32));
  }
}
BENCHMARK(BM_HmacDrbg);

}  // namespace

BENCHMARK_MAIN();
