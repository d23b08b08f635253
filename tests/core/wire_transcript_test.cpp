// Pins the bytes on the wire, which the determinism hash cannot see (it
// folds only the (when, seq) of each fired event). Both switches of the
// golden Testbed world (the cloud gateway, which every client request
// crosses, and the datacenter fabric, which every proxy, web and DB hop
// crosses) are tapped with pass-through forward hooks. Each forwarded
// packet's virtual time, addresses, protocol, length and payload bytes
// are folded into one SHA-256 transcript per security mode. A change to
// host-side buffering, framing or serialisation that alters a single
// byte of any payload (a DB row, an HTTP header, a TLS record, an ESP
// ciphertext) moves the digest while the event hash may stay put.

#include <gtest/gtest.h>

#include <string>

#include "core/testbed.hpp"
#include "crypto/sha256.hpp"

namespace hipcloud::core {
namespace {

class WireTranscript {
 public:
  explicit WireTranscript(net::Network& net) : net_(net) {}

  void tap(net::Node* node) {
    node->set_forward_hook([this](net::Packet& pkt, std::size_t) {
      fold(pkt);
      return true;
    });
  }

  std::string hex() { return crypto::to_hex(sha_.finish()); }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void fold_u64(std::uint64_t v) {
    std::uint8_t be[8];
    for (int i = 0; i < 8; ++i) {
      be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    }
    sha_.update(crypto::BytesView(be, 8));
  }

  void fold_addr(const net::IpAddr& addr) {
    if (addr.is_v4()) {
      fold_u64(4);
      fold_u64(addr.v4().value());
    } else {
      fold_u64(6);
      sha_.update(addr.v6().bytes());
    }
  }

  void fold(const net::Packet& pkt) {
    fold_u64(static_cast<std::uint64_t>(net_.loop().now()));
    fold_addr(pkt.src);
    fold_addr(pkt.dst);
    fold_u64(static_cast<std::uint64_t>(pkt.proto));
    fold_u64(pkt.payload.size());
    sha_.update(pkt.payload.view());
    ++packets_;
    bytes_ += pkt.payload.size();
  }

  net::Network& net_;
  crypto::Sha256 sha_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

// The digest of each mode's transcript. The test is parameterised by
// the mode alone: gtest prints a parameter's bytes into the test's name,
// and a digest pointer there would change from one build to the next.
const char* pinned_digest(SecurityMode mode) {
  switch (mode) {
    case SecurityMode::kBasic:
      return "d5b2faaf87aa02294417bebacc3dca40"
             "fea541743dbac100f4668995dd60ca13";
    case SecurityMode::kHip:
      return "7ab795853a1d3e820bbe2eb2471213cc"
             "c85bd7f4914df752289979c7ae720f55";
    case SecurityMode::kSsl:
      return "9090bbd67a73f43534d63eff24716beb"
             "084ff7a99087467247d8e2f6494d7524";
  }
  return "";
}

std::string mode_param_name(
    const ::testing::TestParamInfo<SecurityMode>& mode_info) {
  return mode_name(mode_info.param);
}

class WireTranscriptGolden : public ::testing::TestWithParam<SecurityMode> {};

TEST_P(WireTranscriptGolden, ForwardedBytesArePinned) {
  TestbedConfig cfg;
  cfg.deployment.mode = GetParam();
  cfg.deployment.web_servers = 2;
  cfg.deployment.dataset.items = 100;
  cfg.deployment.dataset.users = 30;
  cfg.deployment.dataset.bids = 200;
  Testbed bed(cfg);
  WireTranscript transcript(bed.network());
  transcript.tap(bed.cloud().gateway());
  transcript.tap(bed.cloud().fabric());
  const auto report = bed.run_closed_loop(3, 3 * sim::kSecond);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(transcript.packets(), 1000u);
  EXPECT_EQ(transcript.hex(), pinned_digest(GetParam()))
      << transcript.packets() << " packets, " << transcript.bytes()
      << " payload bytes";
}

INSTANTIATE_TEST_SUITE_P(Modes, WireTranscriptGolden,
                         ::testing::Values(SecurityMode::kBasic,
                                           SecurityMode::kHip,
                                           SecurityMode::kSsl),
                         mode_param_name);

}  // namespace
}  // namespace hipcloud::core
