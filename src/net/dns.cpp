#include "net/dns.hpp"

#include <stdexcept>

#include "net/wire_reader.hpp"

namespace hipcloud::net {

using crypto::append_be;
using crypto::Bytes;
using crypto::BytesView;
using crypto::read_be;

DnsRecord DnsRecord::a(Ipv4Addr addr) {
  Bytes data;
  append_be(data, addr.value(), 4);
  return DnsRecord{DnsType::kA, std::move(data)};
}

DnsRecord DnsRecord::aaaa(const Ipv6Addr& addr) {
  return DnsRecord{DnsType::kAaaa,
                   Bytes(addr.bytes().begin(), addr.bytes().end())};
}

DnsRecord DnsRecord::hip(const Ipv6Addr& hit, BytesView host_identity) {
  Bytes data(hit.bytes().begin(), hit.bytes().end());
  data.insert(data.end(), host_identity.begin(), host_identity.end());
  return DnsRecord{DnsType::kHip, std::move(data)};
}

Ipv4Addr DnsRecord::as_a() const {
  if (type != DnsType::kA || data.size() != 4) {
    throw std::runtime_error("DnsRecord: not an A record");
  }
  return Ipv4Addr(static_cast<std::uint32_t>(read_be(data, 0, 4)));
}

Ipv6Addr DnsRecord::as_aaaa() const {
  if (type != DnsType::kAaaa || data.size() != 16) {
    throw std::runtime_error("DnsRecord: not an AAAA record");
  }
  return Ipv6Addr::from_bytes(data);
}

Ipv6Addr DnsRecord::hip_hit() const {
  if (type != DnsType::kHip || data.size() < 16) {
    throw std::runtime_error("DnsRecord: not a HIP record");
  }
  return Ipv6Addr::from_bytes(BytesView(data).subspan(0, 16));
}

Bytes DnsRecord::hip_host_identity() const {
  if (type != DnsType::kHip || data.size() < 16) {
    throw std::runtime_error("DnsRecord: not a HIP record");
  }
  return Bytes(data.begin() + 16, data.end());
}

// Wire format (simulator-simple, not RFC 1035):
//   query:    id(2) | type(1) | name_len(2) | name
//   response: id(2) | count(1) | { type(1) | len(2) | data }*
namespace {
Bytes encode_query(std::uint16_t id, DnsType type, const std::string& name) {
  Bytes out;
  append_be(out, id, 2);
  out.push_back(static_cast<std::uint8_t>(type));
  append_be(out, name.size(), 2);
  out.insert(out.end(), name.begin(), name.end());
  return out;
}
}  // namespace

DnsServer::DnsServer(Node* node, UdpStack* udp) : node_(node), udp_(udp) {
  udp_->bind(kDnsPort, [this](const Endpoint& from, const IpAddr&,
                              crypto::Buffer data) { on_query(from, data); });
}

void DnsServer::add_record(const std::string& name, DnsRecord record) {
  zone_[name].push_back(std::move(record));
}

void DnsServer::remove_records(const std::string& name, DnsType type) {
  const auto it = zone_.find(name);
  if (it == zone_.end()) return;
  std::erase_if(it->second,
                [type](const DnsRecord& r) { return r.type == type; });
}

std::size_t DnsServer::record_count() const {
  std::size_t n = 0;
  for (const auto& [name, records] : zone_) n += records.size();
  return n;
}

// hipcheck:wire_input
void DnsServer::on_query(const Endpoint& from, BytesView data) {
  wire::Reader r(data);
  const auto id = r.u16be();
  const auto raw_type = r.u8();
  const auto name_len = r.u16be();
  if (!id || !raw_type || !name_len) return;
  const auto name_bytes = r.bytes(*name_len);
  if (!name_bytes) return;
  const auto type = static_cast<DnsType>(*raw_type);
  const std::string name(name_bytes->begin(), name_bytes->end());

  Bytes reply;
  append_be(reply, *id, 2);
  std::uint8_t count = 0;
  Bytes records;
  const auto it = zone_.find(name);
  if (it != zone_.end()) {
    for (const auto& record : it->second) {
      if (record.type != type) continue;
      records.push_back(static_cast<std::uint8_t>(record.type));
      append_be(records, record.data.size(), 2);
      records.insert(records.end(), record.data.begin(), record.data.end());
      ++count;
    }
  }
  reply.push_back(count);
  reply.insert(reply.end(), records.begin(), records.end());
  udp_->send(kDnsPort, from, std::move(reply));
}

DnsResolver::DnsResolver(Node* node, UdpStack* udp, Endpoint server)
    : node_(node), udp_(udp), server_(std::move(server)) {
  port_ = udp_->bind(0, [this](const Endpoint&, const IpAddr&,
                               crypto::Buffer data) { on_response(data); });
}

void DnsResolver::query(const std::string& name, DnsType type, ResultFn done) {
  const std::uint16_t id = next_id_++;
  auto& loop = node_->network().loop();
  Pending pending;
  pending.done = std::move(done);
  pending.timeout = loop.schedule(2 * sim::kSecond, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    auto done_fn = std::move(it->second.done);
    pending_.erase(it);
    done_fn({});
  });
  pending_.emplace(id, std::move(pending));
  udp_->send(port_, server_, encode_query(id, type, name));
}

// hipcheck:wire_input
void DnsResolver::on_response(BytesView data) {
  wire::Reader r(data);
  const auto id = r.u16be();
  const auto count = r.u8();
  if (!id || !count) return;
  const auto it = pending_.find(*id);
  if (it == pending_.end()) return;
  node_->network().loop().cancel(it->second.timeout);
  auto done = std::move(it->second.done);
  pending_.erase(it);

  std::vector<DnsRecord> records;
  for (unsigned i = 0; i < *count; ++i) {
    const auto rtype = r.u8();
    if (!rtype) break;
    const auto len = r.u16be();
    if (!len) break;
    const auto rdata = r.bytes(*len);
    if (!rdata) break;
    DnsRecord record;
    record.type = static_cast<DnsType>(*rtype);
    record.data.assign(rdata->begin(), rdata->end());
    records.push_back(std::move(record));
  }
  done(std::move(records));
}

}  // namespace hipcloud::net
