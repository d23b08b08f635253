#include "apps/stream.hpp"

namespace hipcloud::apps {

namespace {

class TcpStream final : public Stream {
 public:
  explicit TcpStream(std::shared_ptr<net::TcpConnection> conn)
      : conn_(std::move(conn)) {}

  void send(crypto::Buffer data) override { conn_->send(std::move(data)); }
  void close() override { conn_->close(); }
  bool ready() const override { return conn_->established(); }
  void on_ready(ReadyFn fn) override {
    if (conn_->established()) {
      fn();
    } else {
      conn_->on_connect(std::move(fn));
    }
  }
  void on_data(DataFn fn) override { conn_->on_data(std::move(fn)); }
  void on_close(CloseFn fn) override { conn_->on_close(std::move(fn)); }

 private:
  std::shared_ptr<net::TcpConnection> conn_;
};

class TlsStream final : public Stream {
 public:
  TlsStream(std::shared_ptr<net::TcpConnection> conn, net::Node* node,
            const TransportConfig& config, bool is_client) {
    session_ = is_client
                   ? tls::TlsSession::client(std::move(conn), node,
                                             config.tls, config.tls_seed)
                   : tls::TlsSession::server(std::move(conn), node,
                                             config.tls, config.tls_seed);
  }

  void send(crypto::Buffer data) override { session_->send(std::move(data)); }
  void close() override { session_->close(); }
  bool ready() const override { return session_->established(); }
  void on_ready(ReadyFn fn) override {
    if (session_->established()) {
      fn();
    } else {
      session_->on_established(std::move(fn));
    }
  }
  void on_data(DataFn fn) override { session_->on_data(std::move(fn)); }
  void on_close(CloseFn fn) override { session_->on_close(std::move(fn)); }

 private:
  std::shared_ptr<tls::TlsSession> session_;
};

}  // namespace

std::unique_ptr<Stream> make_client_stream(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    const TransportConfig& config) {
  if (config.kind == TransportConfig::Kind::kPlain) {
    return std::make_unique<TcpStream>(std::move(conn));
  }
  return std::make_unique<TlsStream>(std::move(conn), node, config,
                                     /*is_client=*/true);
}

std::unique_ptr<Stream> make_server_stream(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    const TransportConfig& config) {
  if (config.kind == TransportConfig::Kind::kPlain) {
    return std::make_unique<TcpStream>(std::move(conn));
  }
  return std::make_unique<TlsStream>(std::move(conn), node, config,
                                     /*is_client=*/false);
}

}  // namespace hipcloud::apps
