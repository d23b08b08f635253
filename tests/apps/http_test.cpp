#include "apps/http.hpp"

#include <gtest/gtest.h>

namespace hipcloud::apps {
namespace {

using crypto::Bytes;

TEST(HttpRequest, SerializeHasRequestLineAndLength) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/bid";
  req.body = crypto::to_bytes("item=1");
  const crypto::Buffer wire = req.serialize();
  const std::string s(wire.begin(), wire.end());
  EXPECT_NE(s.find("POST /bid HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(s.find("content-length: 6"), std::string::npos);
  EXPECT_NE(s.find("\r\n\r\nitem=1"), std::string::npos);
}

TEST(HttpRequest, QueryParams) {
  HttpRequest req;
  req.path = "/item?id=42&sort=asc";
  EXPECT_EQ(req.path_only(), "/item");
  EXPECT_EQ(req.query_param("id"), std::optional<std::string>("42"));
  EXPECT_EQ(req.query_param("sort"), std::optional<std::string>("asc"));
  EXPECT_EQ(req.query_param("missing"), std::nullopt);
  HttpRequest plain;
  plain.path = "/home";
  EXPECT_EQ(plain.path_only(), "/home");
  EXPECT_EQ(plain.query_param("id"), std::nullopt);
}

TEST(HttpParser, ParsesSingleRequest) {
  HttpRequest req;
  req.path = "/browse?page=2";
  req.headers["host"] = "lb.cloud";
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(req.serialize());
  const auto out = parser.next_request();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->method, "GET");
  EXPECT_EQ(out->path, "/browse?page=2");
  EXPECT_EQ(out->headers.at("host"), "lb.cloud");
  EXPECT_FALSE(parser.next_request().has_value());
}

TEST(HttpParser, HandlesArbitraryChunking) {
  HttpRequest req;
  req.path = "/item?id=1";
  req.body = Bytes(100, 'x');
  const crypto::Buffer wire = req.serialize();
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    HttpParser parser(HttpParser::Kind::kRequest);
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      parser.feed(crypto::BytesView(wire).subspan(off, n));
    }
    const auto out = parser.next_request();
    ASSERT_TRUE(out.has_value()) << "chunk=" << chunk;
    EXPECT_EQ(out->body.size(), 100u);
  }
}

TEST(HttpParser, ParsesPipelinedRequests) {
  HttpRequest a, b;
  a.path = "/a";
  b.path = "/b";
  const crypto::Buffer first = a.serialize();
  const crypto::Buffer second = b.serialize();
  Bytes wire(first.begin(), first.end());
  wire.insert(wire.end(), second.begin(), second.end());
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(wire);
  EXPECT_EQ(parser.next_request()->path, "/a");
  EXPECT_EQ(parser.next_request()->path, "/b");
}

TEST(HttpParser, ParsesResponse) {
  HttpResponse resp = HttpResponse::make(200, crypto::to_bytes("<html>"));
  resp.headers["server"] = "hipcloud";
  HttpParser parser(HttpParser::Kind::kResponse);
  parser.feed(resp.serialize());
  const auto out = parser.next_response();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->headers.at("server"), "hipcloud");
  EXPECT_EQ(out->body, crypto::to_bytes("<html>"));
}

TEST(HttpParser, StatusCodesSurvive) {
  for (const int status : {200, 302, 400, 404, 500, 502}) {
    HttpParser parser(HttpParser::Kind::kResponse);
    parser.feed(HttpResponse::make(status, {}).serialize());
    ASSERT_EQ(parser.next_response()->status, status);
  }
}

TEST(HttpParser, MalformedHeaderSetsError) {
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(crypto::to_bytes("GET / HTTP/1.1\r\nbadheader\r\n\r\n"));
  EXPECT_TRUE(parser.error());
}

TEST(HttpParser, BadContentLengthSetsError) {
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(
      crypto::to_bytes("GET / HTTP/1.1\r\ncontent-length: abc\r\n\r\n"));
  EXPECT_TRUE(parser.error());
}

TEST(HttpParser, HeaderFloodGuard) {
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(Bytes(70 * 1024, 'a'));  // no header terminator
  EXPECT_TRUE(parser.error());
}

TEST(HttpParser, IncompleteBodyWaits) {
  HttpRequest req;
  req.body = Bytes(50, 'x');
  const crypto::Buffer wire = req.serialize();
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(crypto::BytesView(wire).subspan(0, wire.size() - 10));
  EXPECT_FALSE(parser.next_request().has_value());
  parser.feed(crypto::BytesView(wire).subspan(wire.size() - 10));
  EXPECT_TRUE(parser.next_request().has_value());
}

TEST(HttpParser, HeaderNamesAreCaseInsensitive) {
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(crypto::to_bytes(
      "GET / HTTP/1.1\r\nContent-Length: 2\r\nX-Custom: Y\r\n\r\nok"));
  const auto out = parser.next_request();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->headers.at("x-custom"), "Y");
  EXPECT_EQ(out->body, crypto::to_bytes("ok"));
}

// The framer must not care how the stream was cut: one byte at a time,
// TCP-sized segments and the whole stream at once yield the same
// messages, heads and bodies included.
TEST(HttpParser, FramingIsIndependentOfChunking) {
  std::vector<HttpRequest> sent(4);
  sent[0].path = "/browse?page=3";
  sent[1].method = "POST";
  sent[1].path = "/bid";
  sent[1].body = crypto::to_bytes("item=1&amount=42");
  sent[2].path = "/big";
  sent[2].headers["x-pad"] = std::string(3000, 'h');  // head spans segments
  sent[2].body = Bytes(9000, 'b');
  sent[3].path = "/user?id=2";
  sent[3].headers["connection"] = "keep-alive";
  Bytes wire;
  for (const HttpRequest& req : sent) {
    const crypto::Buffer msg = req.serialize();
    wire.insert(wire.end(), msg.begin(), msg.end());
  }

  // Declared first: the parsed messages hold blocks from it.
  crypto::BufferPool pool;
  const auto parse = [&wire, &pool](std::size_t chunk) {
    HttpParser parser(HttpParser::Kind::kRequest);
    std::vector<HttpRequest> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      parser.feed(pool.copy(crypto::BytesView(wire).subspan(off, n)));
      while (auto req = parser.next_request()) got.push_back(std::move(*req));
    }
    EXPECT_FALSE(parser.error()) << "chunk=" << chunk;
    return got;
  };
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1460}, wire.size()}) {
    const std::vector<HttpRequest> got = parse(chunk);
    ASSERT_EQ(got.size(), sent.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].method, sent[i].method) << "chunk=" << chunk;
      EXPECT_EQ(got[i].path, sent[i].path) << "chunk=" << chunk;
      auto headers = sent[i].headers;
      headers["content-length"] = std::to_string(sent[i].body.size());
      EXPECT_EQ(got[i].headers, headers) << "chunk=" << chunk;
      EXPECT_EQ(got[i].body, sent[i].body) << "chunk=" << chunk;
    }
  }
}

TEST(HttpParser, ResponsesFramedAcrossChunks) {
  HttpResponse resp = HttpResponse::make(200, Bytes(5000, 'p'));
  resp.headers["server"] = "hipcloud";
  const crypto::Buffer one = resp.serialize();
  Bytes wire(one.begin(), one.end());
  wire.insert(wire.end(), one.begin(), one.end());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{1460},
                                  wire.size()}) {
    HttpParser parser(HttpParser::Kind::kResponse);
    int n = 0;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      parser.feed(crypto::BytesView(wire).subspan(
          off, std::min(chunk, wire.size() - off)));
      while (auto got = parser.next_response()) {
        EXPECT_EQ(got->status, 200);
        EXPECT_EQ(got->headers.at("server"), "hipcloud");
        EXPECT_EQ(got->body, resp.body);
        ++n;
      }
    }
    EXPECT_EQ(n, 2) << "chunk=" << chunk;
  }
}

// Content-length takes its sorted place among the other headers, and a
// stale value set by the caller is rewritten.
TEST(HttpRequest, SerializeRewritesContentLengthInSortedOrder) {
  HttpRequest req;
  req.path = "/x";
  req.headers["accept"] = "*/*";
  req.headers["content-length"] = "999";
  req.headers["host"] = "lb";
  req.body = crypto::to_bytes("abc");
  const crypto::Buffer wire = req.serialize();
  EXPECT_EQ(std::string(wire.begin(), wire.end()),
            "GET /x HTTP/1.1\r\naccept: */*\r\ncontent-length: 3\r\n"
            "host: lb\r\n\r\nabc");
}

TEST(HttpParser, MalformedStartLineFailsOnceBodyArrives) {
  HttpParser parser(HttpParser::Kind::kRequest);
  parser.feed(crypto::to_bytes("BROKEN\r\ncontent-length: 4\r\n\r\nab"));
  EXPECT_FALSE(parser.error());  // the body is still arriving
  parser.feed(crypto::to_bytes("cd"));
  EXPECT_TRUE(parser.error());
  EXPECT_FALSE(parser.next_request().has_value());
}

}  // namespace
}  // namespace hipcloud::apps
