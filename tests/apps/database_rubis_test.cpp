#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "apps/database.hpp"
#include "apps/rubis.hpp"
#include "apps/http_client.hpp"

namespace hipcloud::apps {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

struct DbTopo {
  net::Network net{9};
  net::Node* app;
  net::Node* db_node;
  std::unique_ptr<net::TcpStack> ta, td;

  explicit DbTopo(net::TcpConfig tcp = {}) {
    app = net.add_node("app", 8e9);
    db_node = net.add_node("db", 8e9);
    const auto link = net.connect(app, db_node, {});
    app->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
    db_node->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
    app->set_default_route(link.iface_a);
    db_node->set_default_route(link.iface_b);
    ta = std::make_unique<net::TcpStack>(app, tcp);
    td = std::make_unique<net::TcpStack>(db_node, tcp);
  }

  Endpoint db_ep() const { return Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 3306}; }
};

TEST(DbResult, SerializeParseRoundTrip) {
  DbResult result;
  result.rows.emplace_back(7, crypto::to_bytes("row-seven"));
  result.rows.emplace_back(8, Bytes{});
  const auto back = DbResult::parse(result.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  ASSERT_EQ(back->rows.size(), 2u);
  EXPECT_EQ(back->rows[0].first, 7u);
  EXPECT_EQ(back->rows[0].second, crypto::to_bytes("row-seven"));
  EXPECT_TRUE(back->rows[1].second.empty());
}

TEST(DbResult, ParseRejectsTruncated) {
  DbResult result;
  result.rows.emplace_back(7, Bytes(20, 1));
  Bytes wire = result.serialize();
  wire.resize(wire.size() - 5);
  EXPECT_FALSE(DbResult::parse(wire).has_value());
  EXPECT_FALSE(DbResult::parse(Bytes(3, 0)).has_value());
}

TEST(Database, GetQuery) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  server.load_row("items", 42, 128);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::optional<DbResult> got;
  client.query("GET items 42",
               [&](std::optional<DbResult> r, sim::Duration) { got = r; });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->rows.size(), 1u);
  EXPECT_EQ(got->rows[0].first, 42u);
  EXPECT_EQ(got->rows[0].second.size(), 128u);
}

TEST(Database, GetMissingRowReturnsEmpty) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::optional<DbResult> got;
  client.query("GET items 1",
               [&](std::optional<DbResult> r, sim::Duration) { got = r; });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_TRUE(got->rows.empty());
}

TEST(Database, RangeQuery) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  for (int i = 0; i < 50; ++i) server.load_row("items", i, 64);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::optional<DbResult> got;
  client.query("RANGE items 10 20",
               [&](std::optional<DbResult> r, sim::Duration) { got = r; });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rows.size(), 10u);
  EXPECT_EQ(got->rows.front().first, 10u);
  EXPECT_EQ(got->rows.back().first, 19u);
}

TEST(Database, PutCreatesRow) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  bool put_done = false;
  client.query("PUT bids 99 64",
               [&](std::optional<DbResult> r, sim::Duration) {
                 put_done = r.has_value() && r->ok;
               });
  topo.net.loop().run();
  EXPECT_TRUE(put_done);
  EXPECT_EQ(server.table_size("bids"), 1u);
}

TEST(Database, CountQuery) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  for (int i = 0; i < 7; ++i) server.load_row("users", i, 8);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::uint64_t count = 0;
  client.query("COUNT users",
               [&](std::optional<DbResult> r, sim::Duration) {
                 if (r && !r->rows.empty()) count = r->rows[0].first;
               });
  topo.net.loop().run();
  EXPECT_EQ(count, 7u);
}

TEST(Database, UnknownOpReturnsError) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::optional<DbResult> got;
  client.query("DROP TABLE items",
               [&](std::optional<DbResult> r, sim::Duration) { got = r; });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
}

// Pins how the query text is read, malformed and edge-case input
// included: numbers are read the way `std::istream >>` reads an unsigned
// integer (a leading sign is accepted and a minus wraps, reading stops at
// the first non-digit, a failed or overflowing read yields 0 or the
// maximum and fails every later read), and words are split on
// whitespace.
TEST(Database, QueryTextEdgeCases) {
  struct Case {
    const char* query;
    bool ok;
    std::vector<std::uint64_t> ids;
    std::vector<std::size_t> sizes;
  };
  const std::vector<Case> cases = {
      {"GET items 7", true, {7}, {64}},
      {"GET items abc", true, {0}, {64}},   // failed read: id 0
      {"GET items -1", true, {}, {}},       // wraps to 2^64-1
      {"GET items -0", true, {0}, {64}},
      {"GET items +3", true, {3}, {64}},
      {"GET items 12abc", true, {12}, {64}},  // stops at the first non-digit
      {"GET items 99999999999999999999", true, {}, {}},  // overflow
      {"GET  items\t7", true, {7}, {64}},
      {"GET items", true, {0}, {64}},       // missing id reads as 0
      {"GET", true, {}, {}},                // missing table
      {"RANGE items 3", true, {}, {}},      // missing hi: empty range
      {"RANGE items 2 5junk", true, {2, 3, 4}, {64, 64, 64}},
      {"RANGE items x 5", true, {}, {}},    // lo fails, hi is never read
      {"RANGE items 17 -1", true, {17, 18, 19}, {64, 64, 64}},
      {"RANGE items 4 4", true, {}, {}},
      {"COUNT", true, {0}, {0}},            // table "" has no rows
      {"COUNT items extra", true, {20}, {0}},
      {"PUT bids 5", true, {}, {}},         // missing size: a 0-byte row
      {"GET bids 5", true, {5}, {0}},
      {"PUT bids 6 x", true, {}, {}},
      {"GET bids 6", true, {6}, {0}},
      {"", false, {}, {}},
      {"get items 1", false, {}, {}},       // ops are case-sensitive
      {" GET items 1", true, {1}, {64}},
  };
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  for (int i = 0; i < 20; ++i) server.load_row("items", i, 64);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  for (const Case& c : cases) {
    std::optional<DbResult> got;
    client.query(c.query,
                 [&](std::optional<DbResult> r, sim::Duration) { got = r; });
    topo.net.loop().run();
    ASSERT_TRUE(got.has_value()) << c.query;
    EXPECT_EQ(got->ok, c.ok) << c.query;
    std::vector<std::uint64_t> ids;
    std::vector<std::size_t> sizes;
    for (const auto& [id, payload] : got->rows) {
      ids.push_back(id);
      sizes.push_back(payload.size());
    }
    EXPECT_EQ(ids, c.ids) << c.query;
    EXPECT_EQ(sizes, c.sizes) << c.query;
  }
  EXPECT_EQ(server.queries_executed(), cases.size());
}

// The DB frame framers (queries at the server, replies at the client)
// must not care how TCP cut the stream: one byte per segment, 7-byte
// segments and full segments give the same results.
TEST(Database, FramingIsIndependentOfSegmentation) {
  const std::vector<std::string> queries = {"RANGE items 0 20", "GET big 1",
                                            "COUNT items", "GET items 3"};
  std::vector<Bytes> replies;
  for (const std::size_t mss : {std::size_t{1}, std::size_t{7},
                                std::size_t{1460}}) {
    net::TcpConfig tcp;
    tcp.mss_clamp = mss;
    DbTopo topo(tcp);
    DatabaseServer server(topo.db_node, topo.td.get(), 3306);
    for (int i = 0; i < 20; ++i) server.load_row("items", i, 64);
    server.load_row("big", 1, 3000);
    DbClient client(topo.app, topo.ta.get(), topo.db_ep());
    Bytes all;
    for (const std::string& q : queries) {
      std::optional<DbResult> got;
      client.query(q, [&](std::optional<DbResult> r, sim::Duration) {
        got = std::move(r);
      });
      topo.net.loop().run();
      ASSERT_TRUE(got.has_value()) << q << " mss=" << mss;
      const Bytes wire = got->serialize();
      all.insert(all.end(), wire.begin(), wire.end());
    }
    replies.push_back(std::move(all));
  }
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_EQ(replies[0], replies[2]);
}

// The RUBiS tables are built once per process for each dataset shape and
// shared read-only: servers loaded from four threads at once (as the
// parallel sweep does) see the same rows at the same addresses, while a
// PUT stays private to the server that took it.
TEST(Rubis, DatasetIsBuiltOncePerShapeAndShared) {
  RubisConfig cfg;
  cfg.items = 61;  // a shape no other test uses, so the build happens here
  cfg.users = 17;
  cfg.bids = 43;
  constexpr int kThreads = 4;
  std::vector<const DbTables*> tables(kThreads, nullptr);
  std::vector<const Bytes*> item_rows(kThreads, nullptr);
  std::vector<Bytes> item_bytes(kThreads);
  std::vector<std::size_t> bids_after_put(kThreads, 0);
  // int, not bool: vector<bool> packs the threads' flags into one word.
  std::vector<int> put_visible(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DbTopo topo;
      DatabaseServer server(topo.db_node, topo.td.get(), 3306);
      start.arrive_and_wait();  // first use from all threads at once
      load_rubis_dataset(server, cfg);
      tables[t] = rubis_tables(cfg).get();
      item_rows[t] = server.find_row("items", 7);
      if (item_rows[t] != nullptr) item_bytes[t] = *item_rows[t];
      if (t == 0) {
        // Thread 0 writes; the others must never see it.
        DbClient client(topo.app, topo.ta.get(), topo.db_ep());
        client.query("PUT bids 5000 16", [](std::optional<DbResult>,
                                            sim::Duration) {});
        topo.net.loop().run();
      }
      put_visible[t] = server.find_row("bids", 5000) != nullptr ? 1 : 0;
      bids_after_put[t] = server.table_size("bids");
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]) << t;
    EXPECT_EQ(item_rows[t], item_rows[0]) << t;  // one copy of the row
    EXPECT_EQ(item_bytes[t], synthetic_row("items", 7, cfg.item_bytes)) << t;
    EXPECT_EQ(put_visible[t], t == 0 ? 1 : 0) << t;
    EXPECT_EQ(bids_after_put[t], t == 0 ? 44u : 43u) << t;
  }
  EXPECT_EQ(rubis_tables(cfg).get(), tables[0]);
  EXPECT_EQ(tables[0]->at("items").size(), 61u);
  // The shared tables themselves never saw the PUT.
  EXPECT_FALSE(tables[0]->at("bids").contains(5000));
}

// A server's own rows shadow shared rows of the same id in GET, RANGE
// and COUNT.
TEST(Database, OwnRowsShadowSharedRows) {
  RubisConfig cfg;
  cfg.items = 10;
  cfg.users = 5;
  cfg.bids = 43;
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  load_rubis_dataset(server, cfg);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  std::vector<std::optional<DbResult>> got;
  for (const char* q : {"PUT bids 5 16", "PUT bids 100 8", "RANGE bids 3 8",
                        "GET bids 5", "COUNT bids", "RANGE bids 41 200"}) {
    client.query(q, [&](std::optional<DbResult> r, sim::Duration) {
      got.push_back(std::move(r));
    });
    topo.net.loop().run();
  }
  ASSERT_EQ(got.size(), 6u);
  std::vector<std::pair<std::uint64_t, std::size_t>> range;
  for (const auto& [id, payload] : got[2]->rows) {
    range.emplace_back(id, payload.size());
  }
  EXPECT_EQ(range, (std::vector<std::pair<std::uint64_t, std::size_t>>{
                       {3, 256}, {4, 256}, {5, 16}, {6, 256}, {7, 256}}));
  ASSERT_EQ(got[3]->rows.size(), 1u);
  EXPECT_EQ(got[3]->rows[0].second, synthetic_row("bids", 5, 16));
  EXPECT_EQ(got[4]->rows[0].first, 44u);  // 43 shared + bid 100
  ASSERT_EQ(got[5]->rows.size(), 3u);     // 41, 42 and the new 100
  EXPECT_EQ(got[5]->rows[2].first, 100u);
}

TEST(Database, QueryCacheHitsAndInvalidation) {
  DbTopo topo;
  DbConfig cfg;
  cfg.query_cache = true;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306, cfg);
  for (int i = 0; i < 10; ++i) server.load_row("items", i, 64);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  int done = 0;
  const auto cb = [&](std::optional<DbResult>, sim::Duration) { ++done; };
  client.query("GET items 3", cb);
  topo.net.loop().run();
  client.query("GET items 3", cb);  // cache hit
  topo.net.loop().run();
  EXPECT_EQ(server.cache_hits(), 1u);
  // A write to the table invalidates the cached entry.
  client.query("PUT items 3 64", cb);
  topo.net.loop().run();
  client.query("GET items 3", cb);
  topo.net.loop().run();
  EXPECT_EQ(server.cache_hits(), 1u);  // still 1: entry was invalidated
  EXPECT_EQ(done, 4);
}

TEST(Database, CacheHitIsFaster) {
  DbTopo topo;
  DbConfig cfg;
  cfg.query_cache = true;
  // Slow the DB node down so cost differences are visible.
  topo.db_node->cpu().set_cycles_per_second(1e8);
  DatabaseServer server(topo.db_node, topo.td.get(), 3306, cfg);
  for (int i = 0; i < 200; ++i) server.load_row("items", i, 2048);
  DbClient client(topo.app, topo.ta.get(), topo.db_ep());
  sim::Duration first = 0, second = 0;
  client.query("RANGE items 0 50",
               [&](std::optional<DbResult>, sim::Duration d) { first = d; });
  topo.net.loop().run();
  client.query("RANGE items 0 50",
               [&](std::optional<DbResult>, sim::Duration d) { second = d; });
  topo.net.loop().run();
  EXPECT_LT(second, first / 2);
}

TEST(Rubis, DatasetLoads) {
  DbTopo topo;
  DatabaseServer server(topo.db_node, topo.td.get(), 3306);
  RubisConfig cfg;
  cfg.items = 100;
  cfg.users = 20;
  cfg.bids = 50;
  load_rubis_dataset(server, cfg);
  EXPECT_EQ(server.table_size("items"), 100u);
  EXPECT_EQ(server.table_size("users"), 20u);
  EXPECT_EQ(server.table_size("bids"), 50u);
}

TEST(Rubis, EndpointsServePages) {
  DbTopo topo;
  DatabaseServer db(topo.db_node, topo.td.get(), 3306);
  RubisConfig cfg;
  cfg.items = 100;
  cfg.users = 20;
  cfg.bids = 50;
  load_rubis_dataset(db, cfg);
  RubisWebServer web(topo.app, topo.ta.get(), 8080, {}, topo.db_ep(), {},
                     cfg);
  // Query the web server from the DB node (it has a TCP stack too).
  HttpClient client(topo.db_node, topo.td.get());
  const Endpoint web_ep{IpAddr(Ipv4Addr(10, 0, 0, 1)), 8080};
  const char* paths[] = {"/home", "/browse?page=1", "/item?id=5",
                         "/bids?item=3", "/user?id=2"};
  for (const char* path : paths) {
    std::optional<HttpResponse> got;
    HttpRequest req;
    req.path = path;
    client.request(web_ep, req,
                   [&](std::optional<HttpResponse> resp, sim::Duration) {
                     got = std::move(resp);
                   });
    topo.net.loop().run();
    ASSERT_TRUE(got.has_value()) << path;
    EXPECT_EQ(got->status, 200) << path;
    EXPECT_GT(got->body.size(), 500u) << path;
  }
}

TEST(Rubis, BidPostWritesToDatabase) {
  DbTopo topo;
  DatabaseServer db(topo.db_node, topo.td.get(), 3306);
  RubisConfig cfg;
  load_rubis_dataset(db, cfg);
  const auto bids_before = db.table_size("bids");
  RubisWebServer web(topo.app, topo.ta.get(), 8080, {}, topo.db_ep(), {},
                     cfg);
  HttpClient client(topo.db_node, topo.td.get());
  HttpRequest req;
  req.method = "POST";
  req.path = "/bid";
  req.body = crypto::to_bytes("item=1&amount=9");
  std::optional<HttpResponse> got;
  client.request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 1)), 8080}, req,
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   got = std::move(resp);
                 });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(db.table_size("bids"), bids_before + 1);
}

TEST(Rubis, UnknownPathGives404) {
  DbTopo topo;
  DatabaseServer db(topo.db_node, topo.td.get(), 3306);
  RubisWebServer web(topo.app, topo.ta.get(), 8080, {}, topo.db_ep(), {},
                     {});
  HttpClient client(topo.db_node, topo.td.get());
  HttpRequest req;
  req.path = "/nonexistent";
  std::optional<HttpResponse> got;
  client.request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 1)), 8080}, req,
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   got = std::move(resp);
                 });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
}

TEST(RubisRequestMix, CoversAllEndpointsAndIsDeterministic) {
  RubisConfig cfg;
  RubisRequestMix mix_a(cfg, 5);
  RubisRequestMix mix_b(cfg, 5);
  std::map<std::string, int> seen;
  for (int i = 0; i < 500; ++i) {
    const HttpRequest a = mix_a.next();
    const HttpRequest b = mix_b.next();
    EXPECT_EQ(a.path, b.path);  // deterministic from seed
    const auto q = a.path.find('?');
    seen[a.path.substr(0, q)]++;
  }
  EXPECT_GT(seen["/browse"], 50);
  EXPECT_GT(seen["/item"], 50);
  EXPECT_GT(seen["/bids"], 20);
  EXPECT_GT(seen["/user"], 10);
  EXPECT_GT(seen["/home"], 10);
  EXPECT_GT(seen["/bid"], 10);
}

}  // namespace
}  // namespace hipcloud::apps
