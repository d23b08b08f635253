// Pins the zero-copy single-buffer EspSa datapath to the wire bytes the
// original (allocating) implementation produced, and asserts the heap
// allocation budget of the rewritten protect()/unprotect().
//
// The golden vectors were captured from the seed implementation (one SA
// per suite, spi 0xabcd1234, enc key 32x0x11, auth key 32x0x22, payloads
// covering the CBC padding edges). Any datapath change that alters the
// wire format — IV derivation, padding, ICV truncation, header layout —
// trips these before it can silently break interop between versions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/sha_mb.hpp"
#include "hip/esp.hpp"
#include "hip/identity.hpp"
#include "hip/puzzle.hpp"

// --- counting allocator (whole-binary, gated by a flag) ---------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC pairs the replaced sized delete below with the *default* operator
// new when diagnosing; the replacement new here is malloc-backed, so
// free() is the matching deallocation.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hipcloud::hip {
namespace {

using crypto::Bytes;

Bytes from_hex(const std::string& hex) {
  Bytes out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

std::string to_hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * b.size());
  for (const auto x : b) {
    out.push_back(kDigits[x >> 4]);
    out.push_back(kDigits[x & 0xf]);
  }
  return out;
}

std::vector<Bytes> golden_payloads() {
  std::vector<Bytes> payloads = {
      Bytes{}, crypto::to_bytes("GET /auction HTTP/1.1\r\n\r\n"),
      Bytes(15, 0x5a), Bytes(16, 0x5b), Bytes(17, 0x5c)};
  Bytes pat(100);
  for (int i = 0; i < 100; ++i) pat[i] = static_cast<std::uint8_t>(i * 7);
  payloads.push_back(pat);
  return payloads;
}

// suite index -> 6 wire packets (seq 1..6), captured from the seed.
const char* kGolden[3][6] = {
    {// kNullSha256
     "abcd12340000000100000000abcd1234000000000000000106009343e44704a3bb5813"
     "6fefbd",
     "abcd12340000000200000000abcd123400000000000000020600474554202f61756374"
     "696f6e20485454502f312e310d0a0d0a4eb4ff288405d176dd7754ee",
     "abcd12340000000300000000abcd1234000000000000000306005a5a5a5a5a5a5a5a5a"
     "5a5a5a5a5a5a0dacad3b9292aa10d1f21072",
     "abcd12340000000400000000abcd1234000000000000000406005b5b5b5b5b5b5b5b5b"
     "5b5b5b5b5b5b5b2c72cf649256079365230b29",
     "abcd12340000000500000000abcd1234000000000000000506005c5c5c5c5c5c5c5c5c"
     "5c5c5c5c5c5c5c5c2f9d11baf2d3b2324de85e1c",
     "abcd12340000000600000000abcd12340000000000000006060000070e151c232a3138"
     "3f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d"
     "343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b22"
     "2930373e454c535a61686f767d848b9299a0a7aeb5bee9a426ccc640b40851c33b"},
    {// kAes128CtrSha256
     "abcd12340000000100000000abcd123400000000000000016c0c5a0eb5229524c223ba"
     "861a94",
     "abcd12340000000200000000abcd1234000000000000000206b5c19091941773768a90"
     "d8ede57ab96c7f3868abce545f9b8e2be0aec224f81443a99ca033ed",
     "abcd12340000000300000000abcd123400000000000000033e2b321dc0ba3f08cbd97b"
     "dc409f69408fded554610464f940ef79a1a8",
     "abcd12340000000400000000abcd12340000000000000004d382588044b493c2f4f180"
     "b6e5cd5442b1d57d57ddfb25d559deddb0f885",
     "abcd12340000000500000000abcd12340000000000000005ec8ebfa5f2c2ec4c7fe76c"
     "bbe83668fd41fabd14686f11569ff11f6f048547",
     "abcd12340000000600000000abcd123400000000000000061ba6e193c191b2f1670d40"
     "40e9bef5728ef8128c5ad41fa6522886f4f318c054e4b6bc5d93dea246138b2f1ea6b0"
     "1b861a680db5633fc8f9ada2313f9f270e311000ccf8b2186135fc48e311df8749ded1"
     "7f36f0ef1147d9231253f79203a5e58f7c3781e1aac8b42d90d7038bde6b83dfbf"},
    {// kAes128CbcSha256
     "abcd12340000000100000000abcd12340000000000000001e9f4d2f349bc4556e782eb"
     "c3b10cdc31b8b110a61f397044e58b5855",
     "abcd12340000000200000000abcd1234000000000000000249fc5839fc86832c5842e6"
     "378336525b5da9d89e525af60fa0ca9358dde93411d9002992a261f38834105f97",
     "abcd12340000000300000000abcd123400000000000000039637e53988bbff76c7129d"
     "e1faa2866317f43e879e215be496575219fa84768878a79c07c5874ca92052bda5",
     "abcd12340000000400000000abcd1234000000000000000440caf8893d75702017cbbc"
     "956f16c93e5b4ef2df847e1454b6b4e95e3779f0270204627164d0d1ab3b9dc480",
     "abcd12340000000500000000abcd12340000000000000005636de84ad606999236097a"
     "52aeb6bbec37cf52b468d169052e707aa1e350e22dcc89ad9aec520be0babe62bd",
     "abcd12340000000600000000abcd12340000000000000006ebb7f1e8e96e9ccde7014a"
     "dd85ff715d7ddc51e8074aa596ef34db1de62f9cda8e2f45fbeb7ad3b1f7b78b521b6d"
     "863cb6580aaed94787929fb0453e1c2751ee5e2b594eae076c92c4a8d5abd0e97bfe7f"
     "1be7df091a11d3e41ccd4ba30c64db0aad4333787f81ecab9852c061a394439c6483f0"
     "54d7ae52cbc5a082"},
};
constexpr EspSuite kSuites[3] = {EspSuite::kNullSha256,
                                 EspSuite::kAes128CtrSha256,
                                 EspSuite::kAes128CbcSha256};

TEST(EspFastPath, WireBytesMatchSeedGoldenVectors) {
  const auto payloads = golden_payloads();
  for (int s = 0; s < 3; ++s) {
    EspSa tx(0xabcd1234, kSuites[s], Bytes(32, 0x11), Bytes(32, 0x22));
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      const Bytes wire = tx.protect(6, EspSa::kModeHit, payloads[p]);
      EXPECT_EQ(to_hex(wire), kGolden[s][p])
          << esp_suite_name(kSuites[s]) << " pkt " << p;
    }
  }
}

TEST(EspFastPath, GoldenVectorsUnprotectToOriginalPayloads) {
  const auto payloads = golden_payloads();
  for (int s = 0; s < 3; ++s) {
    EspSa rx(0xabcd1234, kSuites[s], Bytes(32, 0x11), Bytes(32, 0x22));
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      const auto out = rx.unprotect(from_hex(kGolden[s][p]));
      ASSERT_TRUE(out.has_value())
          << esp_suite_name(kSuites[s]) << " pkt " << p;
      EXPECT_EQ(out->inner_proto, 6);
      EXPECT_EQ(out->addr_mode, EspSa::kModeHit);
      EXPECT_EQ(out->payload, payloads[p]);
      EXPECT_EQ(out->seq, p + 1);
    }
  }
}

// The batch paths must be byte-identical to the sequential golden wire —
// the multi-buffer ICV pass is an implementation detail, never a format
// change.
TEST(EspFastPath, ProtectBatchMatchesSeedGoldenVectors) {
  const auto payloads = golden_payloads();
  for (int s = 0; s < 3; ++s) {
    EspSa tx(0xabcd1234, kSuites[s], Bytes(32, 0x11), Bytes(32, 0x22));
    std::vector<EspSa::ProtectJob> jobs(payloads.size());
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      jobs[p] = {6, EspSa::kModeHit,
                 crypto::Buffer(payloads[p], 26, 28)};
    }
    tx.protect_batch(jobs);
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      EXPECT_EQ(to_hex(jobs[p].buf), kGolden[s][p])
          << esp_suite_name(kSuites[s]) << " pkt " << p;
    }
  }
}

TEST(EspFastPath, UnprotectBatchAcceptsGoldenVectors) {
  const auto payloads = golden_payloads();
  for (int s = 0; s < 3; ++s) {
    EspSa rx(0xabcd1234, kSuites[s], Bytes(32, 0x11), Bytes(32, 0x22));
    std::vector<EspSa::UnprotectJob> jobs(payloads.size());
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      jobs[p].wire = crypto::Buffer(from_hex(kGolden[s][p]));
    }
    rx.unprotect_batch(jobs);
    for (std::size_t p = 0; p < payloads.size(); ++p) {
      ASSERT_TRUE(jobs[p].result.has_value())
          << esp_suite_name(kSuites[s]) << " pkt " << p;
      EXPECT_EQ(jobs[p].result->inner_proto, 6);
      EXPECT_EQ(jobs[p].result->payload, payloads[p]);
      EXPECT_EQ(jobs[p].result->seq, p + 1);
    }
  }
}

// Batch sizes around the SIMD lane width (1, W, W+1) must all match what
// a sequential twin SA emits — partial lane groups and the spill lane are
// where a scheduler bug would hide.
TEST(EspFastPath, BatchSizesAroundLaneWidthMatchSequential) {
  // Force each multi-buffer tier in turn (caps above the hardware's
  // width clamp, so every iteration runs *some* valid tier) — on SHA-NI
  // hosts the preferred width is 2, and this keeps the single-stream and
  // AVX2 lane schedulers under test there too.
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    crypto::shamb::set_lane_cap_for_test(cap);
    const std::size_t width = crypto::shamb::lane_width();
    for (const auto suite : kSuites) {
      EspSa batch_tx(0xabcd1234, suite, Bytes(32, 0x11), Bytes(32, 0x22));
      EspSa seq_tx(0xabcd1234, suite, Bytes(32, 0x11), Bytes(32, 0x22));
      for (const std::size_t n : {std::size_t{1}, width, width + 1}) {
        std::vector<Bytes> payloads;
        for (std::size_t i = 0; i < n; ++i) {
          payloads.push_back(Bytes(17 * i % 200, static_cast<std::uint8_t>(i)));
        }
        std::vector<EspSa::ProtectJob> jobs(n);
        for (std::size_t i = 0; i < n; ++i) {
          jobs[i] = {6, EspSa::kModeHit, crypto::Buffer(payloads[i], 26, 28)};
        }
        batch_tx.protect_batch(jobs);
        for (std::size_t i = 0; i < n; ++i) {
          const Bytes want = seq_tx.protect(6, EspSa::kModeHit, payloads[i]);
          EXPECT_EQ(to_hex(jobs[i].buf), to_hex(want))
              << esp_suite_name(suite) << " cap=" << cap << " batch=" << n
              << " pkt " << i;
        }
      }
    }
  }
  crypto::shamb::set_lane_cap_for_test(0);
}

// A replayed packet in the middle of a batch must be dropped (and counted)
// without disturbing acceptance of its neighbours — the stateful replay
// window runs strictly in job order even though the ICVs were batched.
TEST(EspFastPath, ReplayWindowHitMidBatch) {
  const auto payloads = golden_payloads();
  for (int s = 0; s < 3; ++s) {
    EspSa rx(0xabcd1234, kSuites[s], Bytes(32, 0x11), Bytes(32, 0x22));
    // seq 1, 2, 2 (replay), 3, corrupted-5 — one batch.
    std::vector<EspSa::UnprotectJob> jobs(5);
    jobs[0].wire = crypto::Buffer(from_hex(kGolden[s][0]));
    jobs[1].wire = crypto::Buffer(from_hex(kGolden[s][1]));
    jobs[2].wire = crypto::Buffer(from_hex(kGolden[s][1]));
    jobs[3].wire = crypto::Buffer(from_hex(kGolden[s][2]));
    Bytes bad = from_hex(kGolden[s][4]);
    bad[bad.size() - 1] ^= 0x01;  // break the ICV
    jobs[4].wire = crypto::Buffer(bad);
    rx.unprotect_batch(jobs);

    EXPECT_TRUE(jobs[0].result.has_value());
    EXPECT_TRUE(jobs[1].result.has_value());
    EXPECT_FALSE(jobs[2].result.has_value()) << "replayed seq accepted";
    EXPECT_TRUE(jobs[3].result.has_value());
    EXPECT_FALSE(jobs[4].result.has_value()) << "corrupt ICV accepted";
    EXPECT_EQ(rx.replay_drops(), 1u);
    EXPECT_EQ(rx.auth_failures(), 1u);
  }
}

TEST(EspFastPath, ProtectMakesAtMostTwoHeapAllocations) {
  const Bytes payload(1024, 0x5a);
  for (const auto suite : kSuites) {
    EspSa tx(0xabcd1234, suite, Bytes(32, 0x11), Bytes(32, 0x22));
    // Warm up once so lazy one-time initialisation (CPU dispatch statics
    // etc.) doesn't count against the per-packet budget.
    (void)tx.protect(6, EspSa::kModeHit, payload);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const Bytes wire = tx.protect(6, EspSa::kModeHit, payload);
    g_count_allocs.store(false);

    EXPECT_LE(g_alloc_count.load(), 2u)
        << esp_suite_name(suite) << ": protect() exceeded the per-packet "
        << "allocation budget";
    EXPECT_FALSE(wire.empty());
  }
}

TEST(EspFastPath, UnprotectMakesAtMostTwoHeapAllocations) {
  const Bytes payload(1024, 0x5a);
  for (const auto suite : kSuites) {
    EspSa tx(0xabcd1234, suite, Bytes(32, 0x11), Bytes(32, 0x22));
    EspSa rx(0xabcd1234, suite, Bytes(32, 0x11), Bytes(32, 0x22));
    const Bytes warm = tx.protect(6, EspSa::kModeHit, payload);
    ASSERT_TRUE(rx.unprotect(warm).has_value());
    const Bytes wire = tx.protect(6, EspSa::kModeHit, payload);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const auto out = rx.unprotect(wire);
    g_count_allocs.store(false);

    ASSERT_TRUE(out.has_value());
    EXPECT_LE(g_alloc_count.load(), 2u)
        << esp_suite_name(suite) << ": unprotect() exceeded the per-packet "
        << "allocation budget";
  }
}

// The counting allocator above also covers the BEX's SHA-1 work: the
// puzzle hashes one stack block per attempt (about 1,024 attempts per
// BEX at K = 10), and HIT derivation pads its tail on the stack.
TEST(HipSha1Path, PuzzleAndHitDerivationMakeNoHeapAllocation) {
  const net::Ipv6Addr hit_i = net::Ipv6Addr::parse("2001:10::1");
  const net::Ipv6Addr hit_r = net::Ipv6Addr::parse("2001:10::2");
  const Puzzle puzzle{10, 0xfeed};
  const Bytes host_identity(160, 0x42);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const Puzzle::Solution solution = puzzle.solve(hit_i, hit_r);
  const bool verified = puzzle.verify(hit_i, hit_r, solution.j);
  const net::Ipv6Addr hit = HostIdentity::derive_hit(host_identity);
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u);
  EXPECT_GT(solution.attempts, 1u);
  EXPECT_TRUE(verified);
  EXPECT_EQ(hit.bytes()[0], 0x20);
}

}  // namespace
}  // namespace hipcloud::hip
