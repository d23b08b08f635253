#include "apps/rubis.hpp"

#include <array>
#include <charconv>
#include <cstring>

#include "sim/memo.hpp"

namespace hipcloud::apps {

using crypto::Buffer;

namespace {

DbTables build_tables(const RubisConfig& config) {
  DbTables tables;
  auto fill = [&tables](const char* name, std::size_t rows, std::size_t bytes) {
    auto& table = tables[name];
    for (std::size_t id = 0; id < rows; ++id) {
      table.emplace_hint(table.end(), id, synthetic_row(name, id, bytes));
    }
  };
  fill("items", config.items, config.item_bytes);
  fill("users", config.users, config.user_bytes);
  fill("bids", config.bids, config.bid_bytes);
  return tables;
}

/// Calls put() with each piece of the page in order.
template <typename Put>
void page_pieces(std::string_view title, const DbResult& rows, Put&& put) {
  put("<html><head><title>");
  put(title);
  put("</title></head><body>");
  for (const auto& [id, payload] : rows.rows) {
    char digits[24];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, id);
    (void)ec;  // 24 digits always fit a uint64
    put("<div class=\"row\" id=\"");
    put(std::string_view(digits, static_cast<std::size_t>(end - digits)));
    put("\">");
    // Embed a slice of the row payload as page content.
    put(std::string_view(reinterpret_cast<const char*>(payload.data()),
                         std::min<std::size_t>(payload.size(), 512)));
    put("</div>");
  }
  put("</body></html>");
}

}  // namespace

std::shared_ptr<const DbTables> rubis_tables(const RubisConfig& config) {
  // Every row is fixed by the dataset shape, so the shape is the memo's
  // key. The memo holds plain bytes, never pooled Buffers: a pool
  // belongs to one world.
  using Shape = std::array<std::size_t, 6>;
  static const sim::Memo<Shape, std::shared_ptr<const DbTables>> memo{};
  const Shape shape{config.items,      config.users,      config.bids,
                    config.item_bytes, config.user_bytes, config.bid_bytes};
  return memo.get(shape, [&config] {
    return std::make_shared<const DbTables>(build_tables(config));
  });
}

void load_rubis_dataset(DatabaseServer& db, const RubisConfig& config) {
  db.share_tables(rubis_tables(config));
}

RubisWebServer::RubisWebServer(net::Node* node, net::TcpStack* tcp,
                               std::uint16_t port, TransportConfig front,
                               net::Endpoint db, TransportConfig db_transport,
                               RubisConfig config)
    : pool_(node->network().buffer_pool()),
      server_(node, tcp, port, std::move(front)),
      db_(node, tcp, std::move(db), std::move(db_transport)),
      config_(config) {
  server_.set_handler([this](const HttpRequest& req,
                             HttpServer::RespondFn respond) {
    handle(req, std::move(respond));
  });
}

Buffer RubisWebServer::render(std::string_view title, const DbResult& rows,
                              std::size_t min_size) const {
  // "Template rendering": page header, one fragment per row, padding to a
  // realistic page size.
  std::size_t size = 0;
  page_pieces(title, rows, [&size](std::string_view s) { size += s.size(); });
  Buffer page = pool_.make(std::max(size, min_size));
  std::uint8_t* p = page.data();
  page_pieces(title, rows, [&p](std::string_view s) {
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    p += s.size();
  });
  if (size < min_size) std::memset(p, ' ', min_size - size);
  return page;
}

Buffer RubisWebServer::text(std::string_view s) const {
  return pool_.copy(crypto::BytesView(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void RubisWebServer::handle(const HttpRequest& req,
                            HttpServer::RespondFn respond) {
  const std::string_view path = req.path_only();
  auto respond_with = [this, respond](const char* title,
                                      std::optional<DbResult> rows,
                                      std::size_t min_size) {
    if (!rows || !rows->ok) {
      respond(HttpResponse::make(500, text("db error")));
      return;
    }
    respond(HttpResponse::make(200, render(title, *rows, min_size)));
  };

  if (path == "/home") {
    respond(HttpResponse::make(
        200, render("RUBiS - auction site", DbResult{}, 1500)));
    return;
  }
  if (path == "/browse") {
    const auto page = req.query_param("page");
    const std::uint64_t p = page ? std::stoull(*page) : 0;
    const std::uint64_t lo = (p * 20) % std::max<std::size_t>(config_.items, 1);
    db_.query("RANGE items " + std::to_string(lo) + " " +
                  std::to_string(lo + 20),
              [respond_with](std::optional<DbResult> rows, sim::Duration) {
                respond_with("Browse items", std::move(rows), 4000);
              });
    return;
  }
  if (path == "/item") {
    const auto id = req.query_param("id");
    if (!id) {
      respond(HttpResponse::make(400, text("missing id")));
      return;
    }
    // Item lookup, then seller lookup — the classic two-query page.
    db_.query(
        "GET items " + *id,
        [this, respond, respond_with](std::optional<DbResult> item,
                                      sim::Duration) {
          if (!item || !item->ok || item->rows.empty()) {
            respond(HttpResponse::make(404, text("no such item")));
            return;
          }
          const std::uint64_t seller =
              item->rows[0].first % std::max<std::size_t>(config_.users, 1);
          auto combined = std::make_shared<DbResult>(std::move(*item));
          db_.query("GET users " + std::to_string(seller),
                    [respond_with, combined](std::optional<DbResult> user,
                                             sim::Duration) {
                      if (user && user->ok) {
                        for (auto& row : user->rows) {
                          combined->rows.push_back(std::move(row));
                        }
                      }
                      respond_with("Item details", *combined, 2500);
                    });
        });
    return;
  }
  if (path == "/bids") {
    const auto item = req.query_param("item");
    const std::uint64_t base =
        item ? std::stoull(*item) * 2 % std::max<std::size_t>(config_.bids, 1)
             : 0;
    db_.query("RANGE bids " + std::to_string(base) + " " +
                  std::to_string(base + 10),
              [respond_with](std::optional<DbResult> rows, sim::Duration) {
                respond_with("Bid history", std::move(rows), 2000);
              });
    return;
  }
  if (path == "/user") {
    const auto id = req.query_param("id");
    db_.query("GET users " + (id ? *id : "0"),
              [respond_with](std::optional<DbResult> rows, sim::Duration) {
                respond_with("User profile", std::move(rows), 1200);
              });
    return;
  }
  if (path == "/bid" && req.method == "POST") {
    const std::uint64_t bid_id = next_bid_id_++;
    db_.query("PUT bids " + std::to_string(bid_id) + " " +
                  std::to_string(config_.bid_bytes),
              [this, respond](std::optional<DbResult> result, sim::Duration) {
                if (!result || !result->ok) {
                  respond(HttpResponse::make(500, text("bid failed")));
                  return;
                }
                respond(HttpResponse::make(
                    200, text("<html>bid accepted</html>")));
              });
    return;
  }
  respond(HttpResponse::make(404, text("not found")));
}

HttpRequest RubisRequestMix::next() {
  HttpRequest req;
  const double roll = rng_.uniform();
  if (roll < 0.10) {
    req.path = "/home";
  } else if (roll < 0.40) {
    req.path = "/browse?page=" +
               std::to_string(rng_.below(std::max<std::size_t>(
                   config_.items / 20, 1)));
  } else if (roll < 0.65) {
    req.path = "/item?id=" + std::to_string(rng_.below(config_.items));
  } else if (roll < 0.80) {
    req.path = "/bids?item=" + std::to_string(rng_.below(config_.items));
  } else if (roll < 0.90 || config_.read_only) {
    req.path = "/user?id=" + std::to_string(rng_.below(config_.users));
  } else {
    req.method = "POST";
    req.path = "/bid";
    static constexpr std::string_view kBid = "item=1&amount=42";
    req.body = crypto::BytesView(
        reinterpret_cast<const std::uint8_t*>(kBid.data()), kBid.size());
  }
  return req;
}

}  // namespace hipcloud::apps
