#include "apps/database.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <limits>
#include <span>

#include "net/wire_reader.hpp"
#include "sim/log.hpp"

namespace hipcloud::apps {

using crypto::Buffer;
using crypto::Bytes;
using crypto::BytesView;

namespace {

constexpr std::size_t kFrameHeader = 4;  // big-endian payload length
constexpr std::size_t kRowHeader = 12;   // id(8) | len(4)

void store_be(std::uint8_t* p, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    p[i] = static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)));
  }
}

using RowRef = std::pair<std::uint64_t, BytesView>;

/// Size of a result payload: ok(1) | count(4) | count x (id(8) | len(4) |
/// bytes).
std::size_t result_size(std::span<const RowRef> rows) {
  std::size_t n = 1 + 4;
  for (const auto& [id, payload] : rows) n += kRowHeader + payload.size();
  return n;
}

/// Writes a result payload of result_size(rows) bytes at `out`.
void write_result(bool ok, std::span<const RowRef> rows, std::uint8_t* out) {
  *out++ = ok ? 1 : 0;
  store_be(out, rows.size(), 4);
  out += 4;
  for (const auto& [id, payload] : rows) {
    store_be(out, id, 8);
    store_be(out + 8, payload.size(), 4);
    out += kRowHeader;
    if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
    out += payload.size();
  }
}

/// Reads query text the way `std::istringstream >>` does. Words are split
/// on whitespace. A number is an optional sign and decimal digits, read
/// up to the first non-digit; a minus wraps modulo 2^64. A read that
/// finds no word or no digits yields an empty word or 0, one that
/// overflows yields the maximum, and either fails every later read.
class QueryReader {
 public:
  explicit QueryReader(std::string_view text) : rest_(text) {}

  std::string_view word() {
    if (!skip_space()) return {};
    const auto end = std::find_if(rest_.begin(), rest_.end(), is_space);
    const auto n = static_cast<std::size_t>(end - rest_.begin());
    const std::string_view w = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return w;
  }

  std::uint64_t number() {
    if (!skip_space()) return 0;
    const bool negative = rest_.front() == '-';
    if (negative || rest_.front() == '+') rest_.remove_prefix(1);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), value);
    rest_.remove_prefix(static_cast<std::size_t>(ptr - rest_.data()));
    if (ec == std::errc::result_out_of_range) {
      failbit_ = true;
      return std::numeric_limits<std::uint64_t>::max();
    }
    if (ec != std::errc()) {
      failbit_ = true;
      return 0;
    }
    return negative ? 0 - value : value;
  }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }

  /// Skips whitespace; false (and failed from then on) at the end.
  bool skip_space() {
    if (failbit_) return false;
    const auto start = std::find_if_not(rest_.begin(), rest_.end(), is_space);
    rest_.remove_prefix(static_cast<std::size_t>(start - rest_.begin()));
    if (rest_.empty()) failbit_ = true;
    return !failbit_;
  }

  std::string_view rest_;
  bool failbit_ = false;
};

using Table = DbTables::mapped_type;

/// Table `name` of one row layer; an empty table when the layer is
/// absent or lacks it.
const Table& table_in(const DbTables* layer, std::string_view name) {
  static const Table kNone;
  if (layer == nullptr) return kNone;
  const auto it = layer->find(name);
  return it == layer->end() ? kNone : it->second;
}

}  // namespace

Bytes synthetic_row(std::string_view table, std::uint64_t id,
                    std::size_t size) {
  Bytes row(size);
  std::uint64_t x = id * 0x9e3779b97f4a7c15ULL + table.size();
  for (auto& b : row) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return row;
}

Bytes DbResult::serialize() const {
  const std::vector<RowRef> refs(rows.begin(), rows.end());
  Bytes out(result_size(refs));
  write_result(ok, refs, out.data());
  return out;
}

// hipcheck:wire_input
std::optional<DbResult> DbResult::parse(BytesView wire,
                                        crypto::BufferPool* pool) {
  hipcloud::wire::Reader r(wire);
  const auto ok = r.u8();
  const auto count = r.u32be();
  if (!ok || !count) return std::nullopt;
  // Every row takes at least its 12-byte header; a count that cannot fit
  // is truncated input.
  if (*count > r.remaining() / kRowHeader) return std::nullopt;
  DbResult result;
  result.ok = *ok == 1;
  result.rows.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto id_hi = r.u32be();
    const auto id_lo = r.u32be();
    const auto len = r.u32be();
    if (!id_hi || !id_lo || !len) return std::nullopt;
    const auto payload = r.bytes(*len);
    if (!payload) return std::nullopt;
    Buffer row = Buffer::allocate(pool, payload->size());
    if (!payload->empty()) {
      std::memcpy(row.data(), payload->data(), payload->size());
    }
    result.rows.emplace_back(
        (static_cast<std::uint64_t>(*id_hi) << 32) | *id_lo, std::move(row));
  }
  return result;
}

std::optional<Buffer> DbFramer::next() {
  std::uint8_t header[kFrameHeader];
  if (queue_.size() < kFrameHeader) return std::nullopt;
  queue_.copy_out(0, kFrameHeader, header);
  const auto len = static_cast<std::size_t>(
      crypto::read_be(BytesView(header, kFrameHeader), 0, kFrameHeader));
  if (queue_.size() - kFrameHeader < len) return std::nullopt;
  queue_.consume(kFrameHeader);
  return queue_.take(len);
}

DatabaseServer::DatabaseServer(net::Node* node, net::TcpStack* tcp,
                               std::uint16_t port, DbConfig config)
    : node_(node), config_(std::move(config)),
      sessions_(node, tcp, port, config_.transport,
                [this](Buffer&& query, Sessions::Reply reply) {
                  serve(std::move(query), std::move(reply));
                }) {}

void DatabaseServer::load_row(const std::string& table, std::uint64_t id,
                              std::size_t payload_size) {
  own_[table][id] = synthetic_row(table, id, payload_size);
}

void DatabaseServer::share_tables(std::shared_ptr<const DbTables> tables) {
  shared_ = std::move(tables);
}

const Bytes* DatabaseServer::find_row(const std::string& table,
                                      std::uint64_t id) const {
  for (const DbTables* layer : {&own_, shared_.get()}) {
    const Table& t = table_in(layer, table);
    if (const auto it = t.find(id); it != t.end()) return &it->second;
  }
  return nullptr;
}

std::size_t DatabaseServer::table_size(const std::string& table) const {
  const Table& base = table_in(shared_.get(), table);
  std::size_t n = base.size();
  for (const auto& [id, row] : table_in(&own_, table)) {
    if (!base.contains(id)) ++n;
  }
  return n;
}

void DatabaseServer::collect_range(const std::string& table, std::uint64_t lo,
                                   std::uint64_t hi) {
  // Merge the two layers in id order; an own row shadows a base row.
  const Table& own = table_in(&own_, table);
  const Table& base = table_in(shared_.get(), table);
  auto a = own.lower_bound(lo);
  auto b = base.lower_bound(lo);
  for (;;) {
    const bool more_a = a != own.end() && a->first < hi;
    const bool more_b = b != base.end() && b->first < hi;
    if (!more_a && !more_b) return;
    if (more_a && (!more_b || a->first <= b->first)) {
      if (more_b && b->first == a->first) ++b;
      rows_.emplace_back(a->first, a->second);
      ++a;
    } else {
      rows_.emplace_back(b->first, b->second);
      ++b;
    }
  }
}

void DatabaseServer::serve(Buffer&& query, Sessions::Reply reply) {
  auto [frame, cycles] = execute(std::string_view(
      reinterpret_cast<const char*>(query.data()), query.size()));
  node_->cpu().run(cycles, [reply, r = std::move(frame)]() mutable {
    reply.send([&r] { return std::move(r); });
  });
}

std::pair<Buffer, double> DatabaseServer::execute(std::string_view query) {
  ++queries_;
  crypto::BufferPool& pool = node_->network().buffer_pool();
  // Query cache lookup for read statements.
  const bool is_read = query.starts_with("GET") ||
                       query.starts_with("RANGE") ||
                       query.starts_with("COUNT");
  if (config_.query_cache && is_read) {
    const auto hit = cache_.find(query);
    if (hit != cache_.end()) {
      ++cache_hits_;
      return {pool.copy(hit->second), config_.cache_hit_cycles};
    }
  }

  QueryReader in(query);
  const std::string_view op = in.word();
  const std::string table(in.word());
  rows_.clear();
  bool ok = true;
  double cycles = config_.base_cycles;

  if (op == "GET") {
    const std::uint64_t id = in.number();
    if (const Bytes* row = find_row(table, id)) rows_.emplace_back(id, *row);
    cycles += config_.per_row_cycles;
  } else if (op == "RANGE") {
    const std::uint64_t lo = in.number();
    const std::uint64_t hi = in.number();
    collect_range(table, lo, hi);
    cycles += config_.per_row_cycles * static_cast<double>(rows_.size() + 1);
  } else if (op == "PUT") {
    const std::uint64_t id = in.number();
    const std::size_t size = in.number();
    own_[table][id] = synthetic_row(table, id, size);
    cycles += 2 * config_.per_row_cycles;  // index update + write
    // Writes invalidate cached reads touching this table.
    if (config_.query_cache) {
      std::erase_if(cache_, [&table](const auto& kv) {
        return kv.first.find(table) != std::string::npos;
      });
    }
  } else if (op == "COUNT") {
    rows_.emplace_back(table_size(table), BytesView());
    cycles += config_.per_row_cycles;
  } else {
    ok = false;
  }

  std::size_t bytes_out = 0;
  for (const auto& [rid, payload] : rows_) bytes_out += payload.size();
  cycles += config_.per_byte_cycles * static_cast<double>(bytes_out);

  // The reply frame, written straight from storage.
  const std::size_t size = result_size(rows_);
  Buffer frame = pool.make(kFrameHeader + size);
  store_be(frame.data(), size, kFrameHeader);
  write_result(ok, rows_, frame.data() + kFrameHeader);
  if (config_.query_cache && is_read && ok) {
    cache_.insert_or_assign(std::string(query),
                            Bytes(frame.begin(), frame.end()));
  }
  return {std::move(frame), cycles};
}

// ---------------------------------------------------------------------------
// DbClient

DbClient::DbClient(net::Node* node, net::TcpStack* tcp, net::Endpoint server,
                   TransportConfig transport)
    : PooledClient(node, tcp, std::move(transport), 16, std::nullopt),
      node_(node), server_(std::move(server)) {}

void DbClient::query(std::string_view q, ResultFn done) {
  Buffer frame = node_->network().buffer_pool().make(kFrameHeader + q.size());
  store_be(frame.data(), q.size(), kFrameHeader);
  if (!q.empty()) std::memcpy(frame.data() + kFrameHeader, q.data(), q.size());
  request(server_, std::move(frame), std::move(done));
}

}  // namespace hipcloud::apps
