// Property-style parameterized sweeps over TCP configurations: every
// combination must deliver all bytes intact; throughput must respect the
// min(window/RTT, bandwidth) envelope.

#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "test_topology.hpp"

namespace hipcloud::net {
namespace {

using crypto::Bytes;

struct SweepParam {
  std::uint32_t window;
  double bandwidth_bps;
  sim::Duration latency;
  double loss;
};

class TcpSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TcpSweep, TransferCompletesAndRespectsEnvelope) {
  const SweepParam p = GetParam();
  LinkConfig link;
  link.bandwidth_bps = p.bandwidth_bps;
  link.latency = p.latency;
  link.loss_rate = p.loss;
  testing::TwoHosts topo(link, /*seed=*/p.window ^ 77);
  TcpConfig cfg;
  cfg.receive_window = p.window;
  TcpStack sa(topo.a, cfg), sb(topo.b, cfg);

  constexpr std::size_t kTotal = 300000;
  std::size_t received = 0;
  std::uint64_t checksum = 0, expected_checksum = 0;
  sim::Time last_arrival = 0;
  sb.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) {
      for (const std::uint8_t b : data) checksum += b;
      received += data.size();
      last_arrival = topo.net.loop().now();
    });
  });
  auto client = sa.connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80});
  client->on_connect([&] {
    Bytes data(kTotal);
    std::uint8_t v = 1;
    for (auto& b : data) {
      b = v = static_cast<std::uint8_t>(v * 31 + 7);
      expected_checksum += b;
    }
    client->send(std::move(data));
  });
  topo.net.loop().run(300 * sim::kSecond);

  ASSERT_EQ(received, kTotal);
  EXPECT_EQ(checksum, expected_checksum);

  // Envelope: goodput can never beat the wire or the window/RTT bound.
  const double seconds = sim::to_seconds(last_arrival);
  const double goodput = static_cast<double>(kTotal) / seconds;
  EXPECT_LT(goodput, p.bandwidth_bps / 8.0 * 1.01);
  const double rtt = 2.0 * sim::to_seconds(p.latency);
  if (rtt > 0) {
    const double window_bound = static_cast<double>(p.window) / rtt;
    // Only binding when the window is the bottleneck (long fat paths).
    if (window_bound < p.bandwidth_bps / 8.0) {
      EXPECT_LT(goodput, window_bound * 1.15);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Envelope, TcpSweep,
    ::testing::Values(
        SweepParam{87380, 1e9, sim::from_micros(100), 0.0},
        SweepParam{16384, 1e9, sim::from_millis(5), 0.0},
        SweepParam{87380, 10e6, sim::from_millis(1), 0.0},
        SweepParam{65536, 100e6, sim::from_millis(10), 0.0},
        SweepParam{87380, 100e6, sim::from_millis(2), 0.01},
        SweepParam{32768, 50e6, sim::from_millis(20), 0.005},
        SweepParam{8192, 1e9, sim::from_millis(1), 0.0},
        SweepParam{262144, 1e9, sim::from_millis(25), 0.0}),
    [](const auto& name_info) {
      const auto& p = name_info.param;
      return "w" + std::to_string(p.window) + "_b" +
             std::to_string(static_cast<long>(p.bandwidth_bps / 1e6)) +
             "M_l" + std::to_string(sim::to_millis(p.latency) >= 1
                                        ? static_cast<long>(
                                              sim::to_millis(p.latency))
                                        : 0) +
             "ms_p" + std::to_string(static_cast<int>(p.loss * 1000));
    });

/// Bidirectional simultaneous transfer: both directions complete.
TEST(TcpBidirectional, SimultaneousTransfers) {
  testing::TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  constexpr std::size_t kTotal = 100000;
  std::size_t a_received = 0, b_received = 0;
  sb.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    // hipcheck:allow(self-capture): TcpStack::drop_handlers breaks the cycle at teardown
    conn->on_connect([conn] { /* wait for data */ });
    conn->on_data([&, c = conn.get()](crypto::Buffer data) {
      b_received += data.size();
      static bool sent = false;
      if (!sent) {
        sent = true;
        c->send(Bytes(kTotal, 0x22));
      }
    });
  });
  auto client = sa.connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80});
  client->on_connect([&] { client->send(Bytes(kTotal, 0x11)); });
  client->on_data([&](crypto::Buffer data) { a_received += data.size(); });
  topo.net.loop().run(120 * sim::kSecond);
  EXPECT_EQ(b_received, kTotal);
  EXPECT_EQ(a_received, kTotal);
}

/// Many sequential connections: port/tuple management never leaks into
/// wrong connections.
TEST(TcpChurn, SequentialConnectionsAreClean) {
  testing::TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  int accepted = 0;
  sb.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    ++accepted;
    conn->on_data(
        [c = conn.get()](crypto::Buffer echo) { c->send(std::move(echo)); });
  });
  int completed = 0;
  std::function<void(int)> run_one = [&](int remaining) {
    if (remaining == 0) return;
    auto conn = sa.connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80});
    // hipcheck:allow(self-capture): conn->close() below drops handlers, breaking the cycle
    conn->on_connect([conn, remaining] {
      conn->send(crypto::to_bytes("x" + std::to_string(remaining)));
    });
    // hipcheck:allow(self-capture): conn->close() below drops handlers, breaking the cycle
    conn->on_data([&, conn, remaining](crypto::Buffer data) {
      EXPECT_EQ(data, crypto::to_bytes("x" + std::to_string(remaining)));
      ++completed;
      conn->close();
      run_one(remaining - 1);
    });
  };
  run_one(20);
  topo.net.loop().run(120 * sim::kSecond);
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(accepted, 20);
}

}  // namespace
}  // namespace hipcloud::net
