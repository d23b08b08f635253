#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/request_reply.hpp"

namespace hipcloud::apps {

/// Result of a database query: rows of (id, payload).
struct DbResult {
  bool ok = true;
  std::vector<std::pair<std::uint64_t, crypto::Buffer>> rows;

  /// The wire form: ok(1) | count(4) | count x (id(8) | len(4) | bytes).
  crypto::Bytes serialize() const;
  /// Rows are drawn from `pool` (unpooled when null).
  static std::optional<DbResult> parse(crypto::BytesView wire,
                                       crypto::BufferPool* pool = nullptr);
};

/// Tables of rows: table name -> id -> payload.
using DbTables =
    std::map<std::string, std::map<std::uint64_t, crypto::Bytes>, std::less<>>;

/// The deterministic payload of a synthetic row; it depends only on the
/// length of the table name, the id and the size.
crypto::Bytes synthetic_row(std::string_view table, std::uint64_t id,
                            std::size_t size);

/// Length-prefixed frames, the DB protocol's framing in both directions:
/// a 4-byte big-endian payload length, then the payload.
class DbFramer {
 public:
  void feed(crypto::Buffer&& chunk) { queue_.append(std::move(chunk)); }
  bool error() const { return false; }
  /// The next complete frame's payload, if one has arrived.
  std::optional<crypto::Buffer> next();

 private:
  crypto::BufferQueue queue_;  // bytes not yet framed
};

struct DbConfig {
  /// MySQL-style query cache: identical SELECTs served from memory. The
  /// paper enables this only for the httperf response-time experiment.
  bool query_cache = false;
  /// Cost model (cycles): parse/plan/execute baseline per query, per row
  /// touched, per byte shipped, and the cheap cache-hit path.
  double base_cycles = 150e3;
  double per_row_cycles = 1800;
  double per_byte_cycles = 3.0;
  double cache_hit_cycles = 25e3;
  TransportConfig transport;
};

/// The database server ("MySQL 5.1 on an m1.large" in the paper's
/// setup). Speaks a tiny SQL-ish text protocol over length-prefixed
/// frames:
///   GET <table> <id>
///   RANGE <table> <lo> <hi>      (rows with lo <= id < hi)
///   PUT <table> <id> <size>      (synthetic payload of `size` bytes)
///   COUNT <table>
///
/// Rows live in two layers: an optional read-only base shared with other
/// servers (the RUBiS dataset, built once per process), and this server's
/// own rows (load_row and PUT), which shadow base rows of the same id and
/// are never visible to another server.
class DatabaseServer {
 public:
  DatabaseServer(net::Node* node, net::TcpStack* tcp, std::uint16_t port,
                 DbConfig config = {});

  /// Bulk-load a synthetic row (dataset setup; no cost charged).
  void load_row(const std::string& table, std::uint64_t id,
                std::size_t payload_size);
  /// Serve `tables` as the read-only base layer (dataset setup).
  void share_tables(std::shared_ptr<const DbTables> tables);
  std::size_t table_size(const std::string& table) const;
  /// The stored payload of one row, or null.
  const crypto::Bytes* find_row(const std::string& table,
                                std::uint64_t id) const;

  std::uint64_t queries_executed() const { return queries_; }
  std::uint64_t cache_hits() const { return cache_hits_; }

 private:
  using Sessions = SessionServer<DbFramer>;

  /// Executes `query` when it is taken, charges its cycles, then replies.
  void serve(crypto::Buffer&& query, Sessions::Reply reply);
  /// Executes the query; returns the framed reply and its cost in cycles.
  std::pair<crypto::Buffer, double> execute(std::string_view query);
  /// Rows of `table` with lo <= id < hi, in id order, into rows_.
  void collect_range(const std::string& table, std::uint64_t lo,
                     std::uint64_t hi);

  net::Node* node_;
  DbConfig config_;
  std::shared_ptr<const DbTables> shared_;
  DbTables own_;
  std::map<std::string, crypto::Bytes, std::less<>> cache_;  // query -> frame
  std::vector<std::pair<std::uint64_t, crypto::BytesView>> rows_;  // scratch
  std::uint64_t queries_ = 0;
  std::uint64_t cache_hits_ = 0;
  Sessions sessions_;  // last: it starts listening
};

/// The DB protocol as PooledClient speaks it: a query is framed when it is
/// queued, and each reply frame decodes to a DbResult.
struct DbClientProtocol {
  using Request = crypto::Buffer;  // the framed query
  using Reply = DbResult;
  using Framer = DbFramer;

  static void write(Stream& stream, crypto::Buffer&& frame,
                    crypto::BufferPool*) {
    stream.send(std::move(frame));
  }
  static std::optional<DbResult> decode(const crypto::Buffer& frame,
                                        crypto::BufferPool* pool) {
    return DbResult::parse(frame, pool);
  }
};

/// Client side: pooled connections to one server, at most 16, one
/// outstanding query per connection, and no timeout.
class DbClient : private PooledClient<DbClientProtocol> {
 public:
  using ResultFn = ReplyFn;

  DbClient(net::Node* node, net::TcpStack* tcp, net::Endpoint server,
           TransportConfig transport = {});

  void query(std::string_view q, ResultFn done);

  using PooledClient::failures;

 private:
  net::Node* node_;
  net::Endpoint server_;
};

}  // namespace hipcloud::apps
