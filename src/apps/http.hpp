#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/buffer.hpp"

namespace hipcloud::apps {

/// HTTP/1.1 request. Header names are stored lowercase.
struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::map<std::string, std::string> headers;
  crypto::Buffer body;

  /// The whole message in one buffer of the exact size, drawn from `pool`
  /// (unpooled when null). Headers go out in sorted order with
  /// content-length set to the body size.
  crypto::Buffer serialize(crypto::BufferPool* pool = nullptr) const;

  /// Value of a query parameter in the path ("/item?id=7" -> "7").
  std::optional<std::string> query_param(std::string_view name) const;
  /// Path portion before '?'.
  std::string_view path_only() const;
};

/// HTTP/1.1 response.
struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  crypto::Buffer body;

  /// As HttpRequest::serialize.
  crypto::Buffer serialize(crypto::BufferPool* pool = nullptr) const;
  static HttpResponse make(int status, crypto::Buffer body);
};

/// Incremental parser for a stream of HTTP messages (requests or
/// responses, chosen by `kind`). Feed arbitrary chunks; complete messages
/// pop out. Framing is Content-Length based (no chunked encoding — the
/// simulated services always set it).
///
/// Received chunks wait in a BufferQueue. Each message's head is parsed
/// once, as soon as its blank line has arrived (over a view into the
/// chunk when the head lies in one chunk), and released; the body then
/// comes out as one Buffer, which is the received chunk itself when the
/// body filled it exactly. A connection holds no bytes for a message once
/// the message pops out.
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };

  explicit HttpParser(Kind kind) : kind_(kind) {}

  void feed(crypto::Buffer chunk);

  /// Pop the next complete request (kRequest parsers only).
  std::optional<HttpRequest> next_request();
  /// Pop the next complete response (kResponse parsers only).
  std::optional<HttpResponse> next_response();

  /// True when malformed input was encountered; the stream should be
  /// closed.
  bool error() const { return error_; }

 private:
  bool try_parse();
  /// Length of the head including its blank line, once it has arrived.
  std::optional<std::size_t> find_head_end();
  bool parse_head(std::string_view head);

  Kind kind_;
  crypto::BufferQueue buf_;
  /// Bytes of buf_ already searched for the blank line, and how much of
  /// "\r\n\r\n" the last of them matched.
  std::size_t scanned_ = 0;
  int matched_ = 0;
  /// The message whose head has been parsed and whose body is awaited.
  bool have_head_ = false;
  bool bad_start_line_ = false;
  std::size_t content_length_ = 0;
  HttpRequest request_;
  HttpResponse response_;
  std::vector<HttpRequest> requests_;
  std::vector<HttpResponse> responses_;
  bool error_ = false;
};

/// HttpParser as a framer of the request/response layer
/// (apps/request_reply.hpp): requests at a server, responses at a client.
template <HttpParser::Kind kKind>
struct HttpFramer {
  void feed(crypto::Buffer&& chunk) { parser.feed(std::move(chunk)); }
  bool error() const { return parser.error(); }
  auto next() {
    if constexpr (kKind == HttpParser::Kind::kRequest) {
      return parser.next_request();
    } else {
      return parser.next_response();
    }
  }
  HttpParser parser{kKind};
};

}  // namespace hipcloud::apps
