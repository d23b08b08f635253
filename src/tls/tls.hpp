#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "net/tcp.hpp"
#include "tls/cert.hpp"

namespace hipcloud::tls {

/// Per-endpoint TLS configuration.
struct TlsConfig {
  /// Server certificate + key (servers only).
  std::optional<Certificate> certificate;
  std::optional<crypto::RsaPrivateKey> private_key;
  /// CA key used by clients to validate the server certificate.
  std::optional<crypto::RsaPublicKey> ca_public_key;
  /// Virtual-time crypto costs charged to the node CPU.
  crypto::CostModel costs;
};

/// TLS-1.2-style session over a simulated TCP connection: RSA key
/// transport handshake, then an AES-CTR + HMAC-SHA256 record layer. This
/// is the "SSL scenario" baseline of the paper's evaluation — the same
/// asymmetric-handshake + symmetric-records cost structure as HIP+ESP.
///
/// Handshake: ClientHello(random) -> ServerHello(random, certificate) ->
/// ClientKeyExchange(RSA-encrypted premaster) + Finished -> Finished.
class TlsSession : public std::enable_shared_from_this<TlsSession> {
 public:
  using EstablishedFn = std::function<void()>;
  /// Each decrypted application record, as one Buffer.
  using DataFn = std::function<void(crypto::Buffer)>;
  using CloseFn = std::function<void()>;

  /// Wrap the client side of a connection. Starts the handshake as soon
  /// as the TCP connection is (or becomes) established.
  static std::shared_ptr<TlsSession> client(
      std::shared_ptr<net::TcpConnection> conn, net::Node* node,
      TlsConfig config, std::uint64_t seed);

  /// Wrap the server side of an accepted connection.
  static std::shared_ptr<TlsSession> server(
      std::shared_ptr<net::TcpConnection> conn, net::Node* node,
      TlsConfig config, std::uint64_t seed);

  /// Send application data (queued until the handshake completes). Each
  /// call becomes one record.
  void send(crypto::Buffer data);
  void close();

  void on_established(EstablishedFn fn) { on_established_ = std::move(fn); }
  void on_data(DataFn fn) { on_data_ = std::move(fn); }
  void on_close(CloseFn fn) { on_close_ = std::move(fn); }

  bool established() const { return state_ == State::kEstablished; }
  sim::Duration handshake_latency() const { return handshake_latency_; }
  net::TcpConnection* connection() { return conn_.get(); }

  /// Extra bytes the record layer adds per application write.
  static constexpr std::size_t kRecordOverhead = 4 + 8 + 16;  // hdr+seq+mac

 private:
  enum class State {
    kWaitTcp,
    kHelloSent,      // client
    kWaitHello,      // server
    kWaitKeyEx,      // server
    kWaitFinished,   // both
    kEstablished,
    kClosed,
    kError,
  };

  TlsSession(std::shared_ptr<net::TcpConnection> conn, net::Node* node,
             TlsConfig config, bool is_client, std::uint64_t seed);
  void start();
  void on_tcp_data(crypto::Buffer chunk);
  void pump();
  void process_record(std::uint8_t type, crypto::Buffer body);
  void handle_handshake(crypto::BytesView body);
  void send_record(std::uint8_t type, crypto::BytesView body, bool encrypted);
  /// One record in a pooled block of the exact size: header, body
  /// (encrypted in place when `encrypted`), then the MAC.
  crypto::Buffer seal(std::uint8_t type, crypto::BytesView body,
                      bool encrypted);
  void derive_keys();
  void finish_handshake();
  void fail(const char* reason);
  crypto::Bytes finished_mac(bool client_side) const;
  template <typename F>
  void charge(double cycles, F&& then) {
    node_->cpu().run(cycles, std::forward<F>(then));
  }

  std::shared_ptr<net::TcpConnection> conn_;
  net::Node* node_;
  TlsConfig config_;
  bool is_client_;
  crypto::HmacDrbg drbg_;
  State state_ = State::kWaitTcp;

  /// Received bytes not yet framed into a whole record.
  crypto::BufferQueue recv_;
  /// Record processing pauses while an async CPU charge is rewriting the
  /// handshake state, so records arriving meanwhile are not misparsed.
  bool paused_ = false;
  crypto::Bytes client_random_;
  crypto::Bytes server_random_;
  crypto::Bytes premaster_;
  crypto::Bytes master_;
  crypto::Bytes transcript_;  // running hash input of handshake messages

  // Record protection (absent until keys derived). The MACs are keyed once
  // at derive_keys() and reset per record (no key rehash per packet).
  std::optional<crypto::Aes> enc_out_;
  std::optional<crypto::Aes> enc_in_;
  std::optional<crypto::HmacSha256> mac_out_;
  std::optional<crypto::HmacSha256> mac_in_;
  std::uint64_t seq_out_ = 0;
  std::uint64_t seq_in_ = 0;

  std::vector<crypto::Buffer> pending_sends_;
  sim::Time handshake_start_ = 0;
  sim::Duration handshake_latency_ = 0;

  EstablishedFn on_established_;
  DataFn on_data_;
  CloseFn on_close_;
};

}  // namespace hipcloud::tls
