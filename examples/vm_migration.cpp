// Live VM migration with HIP mobility (paper §IV-C): a client talks to a
// service VM by its HIT while the cloud migrates the VM to another
// physical host — and a different subnet. The VM's IP address changes;
// its identity (and therefore the client's connection state) survives,
// re-homed by a single UPDATE handshake.

#include <cstdio>

#include "cloud/cloud.hpp"
#include "crypto/drbg.hpp"
#include "hip/daemon.hpp"
#include "net/udp.hpp"

using namespace hipcloud;

namespace {
hip::HostIdentity make_identity(const char* name) {
  crypto::HmacDrbg drbg(41, std::string("migration-example:") + name);
  return hip::HostIdentity::generate(drbg, hip::HiAlgorithm::kRsa, 1024);
}
}  // namespace

int main() {
  net::Network net(43);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  auto* host0 = ec2.add_host();
  auto* host1 = ec2.add_host();
  auto* service = ec2.launch("service", cloud::InstanceType::small(), "acme",
                             host0);
  auto* client = ec2.launch("client", cloud::InstanceType::small(), "acme",
                            host0);

  hip::HipDaemon hip_service(service->node(), make_identity("service"));
  hip::HipDaemon hip_client(client->node(), make_identity("client"));
  hip_service.add_peer(hip_client.hit(), net::IpAddr(client->private_ip()));
  hip_client.add_peer(hip_service.hit(), net::IpAddr(service->private_ip()));

  std::printf("service VM: %s on host%d, HIT %s\n",
              service->private_ip().to_string().c_str(),
              service->host()->index(),
              hip_service.hit().to_string().c_str());

  // A counter service addressed by HIT.
  net::UdpStack us(service->node()), uc(client->node());
  std::uint64_t served = 0;
  us.bind(7, [&](const net::Endpoint& from, const net::IpAddr&,
                 crypto::Buffer) {
    ++served;
    us.send(7, from, crypto::to_bytes(std::to_string(served)));
  });

  std::uint64_t replies = 0;
  uc.bind(9, [&](const net::Endpoint&, const net::IpAddr&, crypto::Buffer) {
    ++replies;
  });
  // Steady 50 req/s probe stream for 10 s.
  for (int i = 0; i < 500; ++i) {
    net.loop().schedule(i * sim::from_millis(20), [&] {
      uc.send(9, net::Endpoint{net::IpAddr(hip_service.hit()), 7},
              crypto::Bytes(32, 0x42));
    });
  }

  // Migrate at t=3s to the other host (different subnet -> new IP).
  net.loop().schedule(3 * sim::kSecond, [&] {
    std::printf("[t=3s] migrating service VM to host1...\n");
    ec2.migrate(service, host1,
                [&](const cloud::Cloud::MigrationReport& report) {
                  std::printf(
                      "[t=%.2fs] migration complete: new IP %s, "
                      "%.0f MB copied, downtime %.0f ms\n",
                      sim::to_seconds(net.loop().now()),
                      report.new_ip.to_string().c_str(),
                      static_cast<double>(report.bytes_copied) / 1e6,
                      sim::to_millis(report.downtime));
                  // HIP mobility: one UPDATE re-homes every association.
                  hip_service.move_to(net::IpAddr(report.new_ip));
                });
  });

  net.loop().run();

  std::printf("\nprobes sent 500, replies received %llu (loss %.1f%%)\n",
              static_cast<unsigned long long>(replies),
              (500.0 - static_cast<double>(replies)) / 5.0);
  std::printf("service VM now at %s on host%d — same HIT, same ESP "
              "association, no client-side reconfiguration\n",
              service->private_ip().to_string().c_str(),
              service->host()->index());
  std::printf("UPDATE handshakes processed by client: %llu\n",
              static_cast<unsigned long long>(
                  hip_client.stats().updates_processed));
  const bool success = replies > 450 && service->host() == host1;
  std::printf("vm_migration %s\n", success ? "OK" : "FAILED");
  return success ? 0 : 1;
}
