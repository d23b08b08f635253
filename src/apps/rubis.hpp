#pragma once

#include "apps/database.hpp"
#include "apps/http_server.hpp"
#include "sim/random.hpp"

namespace hipcloud::apps {

/// Shape of the synthetic RUBiS-like auction dataset.
struct RubisConfig {
  std::size_t items = 2000;
  std::size_t users = 500;
  std::size_t bids = 5000;
  std::size_t item_bytes = 2048;
  std::size_t user_bytes = 512;
  std::size_t bid_bytes = 256;
  /// Drop POST /bid from the request mix (its 10% bucket falls through
  /// to /user). Failover drills use this: only idempotent requests are
  /// redispatched after an upstream failure (HAProxy `redispatch`
  /// semantics), so a mix with writes cannot promise zero client-visible
  /// errors across an outage.
  bool read_only = false;
};

/// The auction tables for `config`'s shape (items, users, bids and their
/// row sizes). Built once per process for each shape and shared
/// read-only by every caller (DESIGN.md §5b).
std::shared_ptr<const DbTables> rubis_tables(const RubisConfig& config);

/// Load the auction tables into a DatabaseServer: it serves the shared
/// rubis_tables() as its base layer, so its own writes stay private.
void load_rubis_dataset(DatabaseServer& db, const RubisConfig& config);

/// The web tier of the auction service: an HttpServer whose handler maps
/// RUBiS-style endpoints onto database queries, mirroring the paper's
/// "lightweight web servers connected to a high-performance database
/// server" tier. Endpoints:
///   /home           static page, no DB
///   /browse?page=N  item listing (RANGE query)
///   /item?id=N      item details + seller (two GETs)
///   /bids?item=N    bid history (RANGE)
///   /user?id=N      user profile (GET)
///   /bid (POST)     place a bid (PUT)
class RubisWebServer {
 public:
  RubisWebServer(net::Node* node, net::TcpStack* tcp, std::uint16_t port,
                 TransportConfig front, net::Endpoint db,
                 TransportConfig db_transport, RubisConfig config = {});

  std::uint64_t requests_served() const { return server_.requests_served(); }
  std::uint64_t db_failures() const { return db_.failures(); }

  /// CPU cycles per request for the dynamic-page logic (PHP-style
  /// templating in the original RUBiS) — the web tier's dominant cost.
  void set_request_cycles(double cycles) {
    server_.set_request_cycles(cycles);
  }

 private:
  void handle(const HttpRequest& req, HttpServer::RespondFn respond);
  /// The page for `rows`, padded to `min_size`, in one pooled buffer.
  crypto::Buffer render(std::string_view title, const DbResult& rows,
                        std::size_t min_size) const;
  crypto::Buffer text(std::string_view s) const;

  crypto::BufferPool& pool_;
  HttpServer server_;
  DbClient db_;
  RubisConfig config_;
  std::uint64_t next_bid_id_ = 1000000;
};

/// Generates the paper's workload: random RUBiS requests with a
/// browse-heavy mix (the read-dominated profile RUBiS models after ebay).
class RubisRequestMix {
 public:
  RubisRequestMix(RubisConfig config, std::uint64_t seed)
      : config_(config), rng_(seed) {}

  HttpRequest next();

 private:
  RubisConfig config_;
  sim::Xoshiro256 rng_;
};

}  // namespace hipcloud::apps
