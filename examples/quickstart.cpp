// Quickstart: two hosts establish a HIP association and exchange data
// over the resulting BEET-ESP tunnel — the minimal end-to-end use of the
// library. Walks through every step with commentary.

#include <cstdio>

#include "crypto/drbg.hpp"
#include "hip/daemon.hpp"
#include "net/udp.hpp"
#include "sim/log.hpp"

using namespace hipcloud;

int main() {
  sim::Log::set_level(sim::LogLevel::kInfo);

  // 1. A simulated world: two hosts on one link.
  net::Network net(/*seed=*/42);
  net::Node* alice = net.add_node("alice", 3e9);
  net::Node* bob = net.add_node("bob", 3e9);
  const auto link = net.connect(alice, bob, {});
  alice->add_address(link.iface_a, net::Ipv4Addr(10, 0, 0, 1));
  bob->add_address(link.iface_b, net::Ipv4Addr(10, 0, 0, 2));
  alice->set_default_route(link.iface_a);
  bob->set_default_route(link.iface_b);

  // 2. Host identities: public keys whose hash is the Host Identity Tag.
  crypto::HmacDrbg da(1, "alice"), db(2, "bob");
  auto id_a = hip::HostIdentity::generate(da, hip::HiAlgorithm::kRsa, 1024);
  auto id_b = hip::HostIdentity::generate(db, hip::HiAlgorithm::kRsa, 1024);
  std::printf("alice HIT: %s\n", id_a.hit().to_string().c_str());
  std::printf("bob   HIT: %s\n", id_b.hit().to_string().c_str());

  // 3. HIP daemons — the layer-3.5 shim on each host.
  hip::HipDaemon hip_a(alice, std::move(id_a));
  hip::HipDaemon hip_b(bob, std::move(id_b));

  // 4. Peer knowledge: HIT -> locator (in deployment this comes from DNS
  //    HIP records; here a static "hip hosts" entry).
  hip_a.add_peer(hip_b.hit(), net::IpAddr(net::Ipv4Addr(10, 0, 0, 2)));
  hip_b.add_peer(hip_a.hit(), net::IpAddr(net::Ipv4Addr(10, 0, 0, 1)));

  // 5. Applications just use HITs as addresses. Sending the first packet
  //    triggers the Base Exchange automatically.
  net::UdpStack udp_a(alice), udp_b(bob);
  udp_b.bind(7777, [&](const net::Endpoint& from, const net::IpAddr&,
                       crypto::Buffer data) {
    std::printf("bob received %zu bytes from %s: \"%.*s\"\n", data.size(),
                from.to_string().c_str(), static_cast<int>(data.size()),
                data.empty() ? "" : reinterpret_cast<const char*>(data.data()));
    udp_b.send(7777, from, crypto::to_bytes("hello alice, over ESP"));
  });

  bool replied = false;
  udp_a.bind(5555, [&](const net::Endpoint&, const net::IpAddr&,
                       crypto::Buffer data) {
    std::printf("alice received reply: \"%.*s\"\n",
                static_cast<int>(data.size()),
                data.empty() ? "" : reinterpret_cast<const char*>(data.data()));
    replied = true;
  });

  hip_a.on_established([&](const net::Ipv6Addr& peer, sim::Duration rtt) {
    std::printf("BEX with %s completed in %.2f ms\n",
                peer.to_string().c_str(), sim::to_millis(rtt));
  });

  udp_a.send(5555, net::Endpoint{net::IpAddr(hip_b.hit()), 7777},
             crypto::to_bytes("hello bob, over HIP"));

  // 6. Run the world.
  net.loop().run();

  std::printf("\nESP packets exchanged: %llu out / %llu in (alice)\n",
              static_cast<unsigned long long>(hip_a.stats().esp_packets_out),
              static_cast<unsigned long long>(hip_a.stats().esp_packets_in));
  std::printf("quickstart %s\n", replied ? "OK" : "FAILED");
  return replied ? 0 : 1;
}
