#pragma once

#include <functional>
#include <memory>

#include "net/tcp.hpp"
#include "tls/tls.hpp"

namespace hipcloud::apps {

/// Transport-agnostic byte stream: the same application code runs over
/// plain TCP (the paper's "basic" scenario and the HIP scenario, where
/// security lives below at layer 3.5) or over TLS (the "SSL" scenario).
/// Payloads travel as crypto::Buffer both ways: send() hands a message to
/// the transport without a copy, and DataFn receives each chunk as the
/// transport delivered it (a TCP segment, or one decrypted TLS record).
class Stream {
 public:
  using ReadyFn = std::function<void()>;
  using DataFn = std::function<void(crypto::Buffer)>;
  using CloseFn = std::function<void()>;

  virtual ~Stream() = default;

  virtual void send(crypto::Buffer data) = 0;
  virtual void close() = 0;
  virtual bool ready() const = 0;
  virtual void on_ready(ReadyFn fn) = 0;
  virtual void on_data(DataFn fn) = 0;
  virtual void on_close(CloseFn fn) = 0;
};

/// How to secure a hop. `kPlain` covers both the basic scenario and HIP
/// (with HIP, protection happens in the HIP daemon under the socket API —
/// exactly the transparency the paper advertises).
struct TransportConfig {
  enum class Kind { kPlain, kTls };
  Kind kind = Kind::kPlain;
  tls::TlsConfig tls;
  std::uint64_t tls_seed = 1;
};

/// Wrap an outgoing TCP connection according to the transport config.
std::unique_ptr<Stream> make_client_stream(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    const TransportConfig& config);

/// Wrap an accepted TCP connection according to the transport config.
std::unique_ptr<Stream> make_server_stream(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    const TransportConfig& config);

}  // namespace hipcloud::apps
