#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/udp.hpp"

namespace hipcloud::net {

constexpr std::uint16_t kDnsPort = 53;

/// Record types the simulator's DNS understands. HIP records (RFC 5205)
/// carry a Host Identity Tag plus the full Host Identity public key and
/// are how HIP peers discover each other's identities dynamically.
enum class DnsType : std::uint8_t {
  kA = 1,
  kAaaa = 28,
  kHip = 55,
};

struct DnsRecord {
  DnsType type;
  crypto::Bytes data;  // A: 4 bytes; AAAA: 16 bytes; HIP: HIT(16) | HI

  static DnsRecord a(Ipv4Addr addr);
  static DnsRecord aaaa(const Ipv6Addr& addr);
  static DnsRecord hip(const Ipv6Addr& hit, crypto::BytesView host_identity);

  Ipv4Addr as_a() const;
  Ipv6Addr as_aaaa() const;
  Ipv6Addr hip_hit() const;
  crypto::Bytes hip_host_identity() const;
};

/// Authoritative DNS server over simulated UDP. The paper's deployment
/// keeps HIP records in DNS (Bind supports them); here the cloud
/// provider publishes VM HITs the same way.
class DnsServer {
 public:
  DnsServer(Node* node, UdpStack* udp);

  void add_record(const std::string& name, DnsRecord record);
  void remove_records(const std::string& name, DnsType type);
  std::size_t record_count() const;

 private:
  void on_query(const Endpoint& from, crypto::BytesView data);

  Node* node_;
  UdpStack* udp_;
  std::map<std::string, std::vector<DnsRecord>> zone_;
};

/// Stub resolver: fire a query, get records (empty vector = NXDOMAIN or
/// timeout after 2s).
class DnsResolver {
 public:
  using ResultFn = std::function<void(std::vector<DnsRecord>)>;

  DnsResolver(Node* node, UdpStack* udp, Endpoint server);

  void query(const std::string& name, DnsType type, ResultFn done);

 private:
  void on_response(crypto::BytesView data);

  Node* node_;
  UdpStack* udp_;
  Endpoint server_;
  std::uint16_t port_ = 0;
  std::uint16_t next_id_ = 1;
  struct Pending {
    ResultFn done;
    sim::EventHandle timeout;
  };
  std::map<std::uint16_t, Pending> pending_;
};

}  // namespace hipcloud::net
