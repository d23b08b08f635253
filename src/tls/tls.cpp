#include "tls/tls.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "net/wire_reader.hpp"
#include "sim/log.hpp"

namespace hipcloud::tls {

using crypto::Bytes;
using crypto::BytesView;

namespace {
constexpr std::uint8_t kRecordHandshake = 22;
constexpr std::uint8_t kRecordApplication = 23;
constexpr std::uint8_t kRecordAlert = 21;

constexpr std::uint8_t kHsClientHello = 1;
constexpr std::uint8_t kHsServerHello = 2;
constexpr std::uint8_t kHsClientKeyExchange = 16;
constexpr std::uint8_t kHsFinished = 20;

constexpr std::size_t kMacLen = 16;

// Hard ceiling on the claimed record length. Without it, a peer that sends a
// 4-byte header claiming a multi-megabyte body makes us buffer the connection
// bytes forever waiting for a record that never completes. Far above any
// legitimate record (largest app payloads are a few KiB).
constexpr std::size_t kMaxRecordLen = 1 << 20;

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
}
}  // namespace

std::shared_ptr<TlsSession> TlsSession::client(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    TlsConfig config, std::uint64_t seed) {
  auto session = std::shared_ptr<TlsSession>(new TlsSession(
      std::move(conn), node, std::move(config), /*is_client=*/true, seed));
  session->start();
  return session;
}

std::shared_ptr<TlsSession> TlsSession::server(
    std::shared_ptr<net::TcpConnection> conn, net::Node* node,
    TlsConfig config, std::uint64_t seed) {
  auto session = std::shared_ptr<TlsSession>(new TlsSession(
      std::move(conn), node, std::move(config), /*is_client=*/false, seed));
  session->start();
  return session;
}

TlsSession::TlsSession(std::shared_ptr<net::TcpConnection> conn,
                       net::Node* node, TlsConfig config, bool is_client,
                       std::uint64_t seed)
    : conn_(std::move(conn)), node_(node), config_(std::move(config)),
      is_client_(is_client), drbg_(seed, "tls:" + node->name()) {}

void TlsSession::start() {
  auto self = shared_from_this();
  conn_->on_data(
      [self](crypto::Buffer chunk) { self->on_tcp_data(std::move(chunk)); });
  conn_->on_close([self] {
    if (self->state_ != State::kClosed) {
      self->state_ = State::kClosed;
      if (self->on_close_) self->on_close_();
    }
  });

  const auto begin = [self] {
    self->handshake_start_ = self->node_->network().loop().now();
    if (self->is_client_) {
      self->client_random_ = self->drbg_.generate(32);
      Bytes hello{kHsClientHello};
      hello.insert(hello.end(), self->client_random_.begin(),
                   self->client_random_.end());
      self->transcript_.insert(self->transcript_.end(), hello.begin(),
                               hello.end());
      self->send_record(kRecordHandshake, hello, /*encrypted=*/false);
      self->state_ = State::kHelloSent;
    } else {
      self->state_ = State::kWaitHello;
    }
  };
  if (conn_->established()) {
    begin();
  } else {
    conn_->on_connect(begin);
  }
}

void TlsSession::send(crypto::Buffer data) {
  if (state_ == State::kEstablished) {
    charge(config_.costs.tls_record_cycles(data.size()),
           [self = shared_from_this(), d = std::move(data)] {
             if (self->state_ != State::kEstablished) return;
             self->send_record(kRecordApplication, d, /*encrypted=*/true);
           });
    return;
  }
  if (state_ == State::kClosed || state_ == State::kError) return;
  pending_sends_.push_back(std::move(data));
}

void TlsSession::close() {
  if (state_ == State::kEstablished) {
    const std::uint8_t close_notify = 0;
    send_record(kRecordAlert, BytesView(&close_notify, 1), /*encrypted=*/true);
  }
  state_ = State::kClosed;
  conn_->close();
}

void TlsSession::fail(const char* reason) {
  HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(), "tls",
                node_->name() + ": handshake failed: " + reason);
  state_ = State::kError;
  conn_->reset();
  if (on_close_) on_close_();
}

void TlsSession::send_record(std::uint8_t type, BytesView body,
                             bool encrypted) {
  // The sealed record joins TCP's send queue as it is.
  conn_->send(seal(type, body, encrypted));
}

crypto::Buffer TlsSession::seal(std::uint8_t type, BytesView body,
                                bool encrypted) {
  // Single-buffer record build: header, body encrypted in place (nonce
  // from the record sequence number), then the streamed MAC over
  // type|seq|ciphertext.
  const std::size_t len = body.size() + (encrypted ? kMacLen : 0);
  crypto::Buffer record = node_->network().buffer_pool().make(4 + len);
  std::uint8_t* p = record.data();
  p[0] = type;
  p[1] = static_cast<std::uint8_t>(len >> 16);
  p[2] = static_cast<std::uint8_t>(len >> 8);
  p[3] = static_cast<std::uint8_t>(len);
  if (!body.empty()) std::memcpy(p + 4, body.data(), body.size());
  if (encrypted) {
    std::uint8_t seq_be[8];
    store_be64(seq_be, seq_out_);
    std::uint8_t nonce[12] = {};
    std::memcpy(nonce + 4, seq_be, 8);
    enc_out_->ctr_xor(nonce, 1, p + 4, body.size());
    mac_out_->reset();
    mac_out_->update(BytesView(&type, 1));
    mac_out_->update(BytesView(seq_be, 8));
    mac_out_->update(BytesView(p + 4, body.size()));
    std::uint8_t mac[crypto::HmacSha256::kDigestSize];
    mac_out_->finish(mac);
    std::memcpy(p + 4 + body.size(), mac, kMacLen);
    ++seq_out_;
  }
  return record;
}

// hipcheck:wire_input
void TlsSession::on_tcp_data(crypto::Buffer chunk) {
  recv_.append(std::move(chunk));
  pump();
}

void TlsSession::pump() {
  while (!paused_) {
    // The 4-byte header may straddle TCP segments; peek a copy of it.
    std::uint8_t header[4];
    if (recv_.size() < sizeof header) return;  // incomplete record header
    recv_.copy_out(0, sizeof header, header);
    wire::Reader r(BytesView(header, sizeof header));
    const auto type = r.u8();
    const auto len = r.u24be();
    if (!type || !len) return;
    if (*len > kMaxRecordLen) return fail("oversized record");
    if (recv_.size() - sizeof header < *len) return;  // body still arriving
    recv_.consume(sizeof header);
    process_record(*type, recv_.take(*len));
    if (state_ == State::kError || state_ == State::kClosed) return;
  }
}

// hipcheck:wire_input
void TlsSession::process_record(std::uint8_t type, crypto::Buffer body) {
  const bool encrypted_phase =
      enc_in_.has_value() &&
      (type == kRecordApplication || type == kRecordAlert ||
       (type == kRecordHandshake && state_ == State::kWaitFinished));
  if (encrypted_phase) {
    if (body.size() < kMacLen) return fail("short record");
    const std::size_t ct_len = body.size() - kMacLen;
    std::uint8_t seq_be[8];
    store_be64(seq_be, seq_in_);
    mac_in_->reset();
    mac_in_->update(BytesView(&type, 1));
    mac_in_->update(BytesView(seq_be, 8));
    mac_in_->update(BytesView(body.data(), ct_len));
    std::uint8_t expected[crypto::HmacSha256::kDigestSize];
    mac_in_->finish(expected);
    if (!crypto::ct_equal(body.view().subspan(ct_len),
                          BytesView(expected, kMacLen))) {
      return fail("bad record MAC");
    }
    body.pop_back(kMacLen);
    std::uint8_t nonce[12] = {};
    std::memcpy(nonce + 4, seq_be, 8);
    enc_in_->ctr_xor(nonce, 1, body.data(), ct_len);
    ++seq_in_;
  }

  switch (type) {
    case kRecordHandshake:
      handle_handshake(body.view());
      break;
    case kRecordApplication: {
      if (state_ != State::kEstablished) return fail("early app data");
      charge(config_.costs.tls_record_cycles(body.size()),
             [self = shared_from_this(), b = std::move(body)]() mutable {
               if (self->on_data_) self->on_data_(std::move(b));
             });
      break;
    }
    case kRecordAlert:
      state_ = State::kClosed;
      conn_->close();
      if (on_close_) on_close_();
      break;
    default:
      fail("unknown record type");
  }
}

void TlsSession::derive_keys() {
  Bytes salt = client_random_;
  salt.insert(salt.end(), server_random_.begin(), server_random_.end());
  master_ = crypto::hkdf_extract(salt, premaster_);
  const Bytes block =
      crypto::hkdf_expand(master_, crypto::to_bytes("key expansion"), 4 * 32);
  auto slice = [&block](int i) {
    return Bytes(block.begin() + i * 32, block.begin() + (i + 1) * 32);
  };
  const Bytes client_enc = slice(0), client_mac = slice(1);
  const Bytes server_enc = slice(2), server_mac = slice(3);
  if (is_client_) {
    enc_out_.emplace(BytesView(client_enc).subspan(0, 16));
    mac_out_.emplace(client_mac);
    enc_in_.emplace(BytesView(server_enc).subspan(0, 16));
    mac_in_.emplace(server_mac);
  } else {
    enc_out_.emplace(BytesView(server_enc).subspan(0, 16));
    mac_out_.emplace(server_mac);
    enc_in_.emplace(BytesView(client_enc).subspan(0, 16));
    mac_in_.emplace(client_mac);
  }
}

crypto::Bytes TlsSession::finished_mac(bool client_side) const {
  const Bytes label = crypto::to_bytes(client_side ? "client finished"
                                                   : "server finished");
  Bytes input = label;
  const Bytes digest = crypto::Sha256::digest(transcript_);
  input.insert(input.end(), digest.begin(), digest.end());
  return crypto::hmac_sha256(master_, input);
}

void TlsSession::finish_handshake() {
  state_ = State::kEstablished;
  handshake_latency_ = node_->network().loop().now() - handshake_start_;
  if (on_established_) on_established_();
  std::vector<crypto::Buffer> pending = std::move(pending_sends_);
  pending_sends_.clear();
  for (crypto::Buffer& data : pending) send(std::move(data));
}

// hipcheck:wire_input
void TlsSession::handle_handshake(BytesView body) {
  wire::Reader r(body);
  const auto msg_type = r.u8();
  if (!msg_type) return fail("empty handshake");

  switch (*msg_type) {
    case kHsClientHello: {
      if (is_client_ || state_ != State::kWaitHello) return fail("bad hello");
      const auto rnd = r.bytes(32);
      if (!rnd || r.remaining() != 0) return fail("malformed ClientHello");
      client_random_.assign(rnd->begin(), rnd->end());
      transcript_.insert(transcript_.end(), body.begin(), body.end());
      if (!config_.certificate || !config_.private_key) {
        return fail("server has no certificate");
      }
      server_random_ = drbg_.generate(32);
      Bytes hello{kHsServerHello};
      hello.insert(hello.end(), server_random_.begin(), server_random_.end());
      const Bytes cert = config_.certificate->encode();
      crypto::append_be(hello, cert.size(), 2);
      hello.insert(hello.end(), cert.begin(), cert.end());
      transcript_.insert(transcript_.end(), hello.begin(), hello.end());
      send_record(kRecordHandshake, hello, false);
      state_ = State::kWaitKeyEx;
      break;
    }
    case kHsServerHello: {
      if (!is_client_ || state_ != State::kHelloSent) return fail("bad hello");
      const auto rnd = r.bytes(32);
      const auto cert_len = r.u16be();
      if (!rnd || !cert_len) return fail("malformed ServerHello");
      const auto cert_bytes = r.bytes(*cert_len);
      if (!cert_bytes) return fail("malformed certificate");
      server_random_.assign(rnd->begin(), rnd->end());
      Certificate cert;
      try {
        cert = Certificate::decode(*cert_bytes);
      } catch (const std::runtime_error&) {
        return fail("unparseable certificate");
      }
      transcript_.insert(transcript_.end(), body.begin(), body.end());

      // Verify the certificate chain, then do the RSA key transport —
      // the client's expensive steps, charged to its CPU.
      if (config_.ca_public_key &&
          !CertificateAuthority::verify(*config_.ca_public_key, cert)) {
        return fail("certificate verification failed");
      }
      premaster_ = drbg_.generate(48);
      crypto::RsaPublicKey server_key;
      try {
        server_key = cert.rsa();
      } catch (const std::runtime_error&) {
        return fail("bad server key");
      }
      const std::size_t server_bits = server_key.n.bit_length();
      const double cycles =
          config_.costs.rsa_verify_cycles(1024) +  // cert signature check
          config_.costs.rsa_verify_cycles(server_bits);  // RSA encrypt
      paused_ = true;
      charge(cycles, [self = shared_from_this(), server_key] {
        self->paused_ = false;
        if (self->state_ != State::kHelloSent) return;
        Bytes keyex{kHsClientKeyExchange};
        const Bytes encrypted = crypto::rsa_encrypt_pkcs1(
            server_key, self->drbg_, self->premaster_);
        crypto::append_be(keyex, encrypted.size(), 2);
        keyex.insert(keyex.end(), encrypted.begin(), encrypted.end());
        self->transcript_.insert(self->transcript_.end(), keyex.begin(),
                                 keyex.end());
        self->send_record(kRecordHandshake, keyex, false);
        self->derive_keys();
        const Bytes finished_body = [&] {
          Bytes fin{kHsFinished};
          const Bytes mac = self->finished_mac(/*client_side=*/true);
          fin.insert(fin.end(), mac.begin(), mac.end());
          return fin;
        }();
        self->send_record(kRecordHandshake, finished_body,
                          /*encrypted=*/true);
        // Both sides include the client Finished in the transcript that
        // the server Finished covers.
        self->transcript_.insert(self->transcript_.end(),
                                 finished_body.begin(), finished_body.end());
        self->state_ = State::kWaitFinished;
        self->pump();
      });
      break;
    }
    case kHsClientKeyExchange: {
      if (is_client_ || state_ != State::kWaitKeyEx) return fail("bad keyex");
      const auto enc_len = r.u16be();
      if (!enc_len) return fail("malformed keyex");
      const auto enc = r.bytes(*enc_len);
      if (!enc) return fail("malformed keyex");
      const Bytes encrypted(enc->begin(), enc->end());
      transcript_.insert(transcript_.end(), body.begin(), body.end());

      // RSA private decryption: the server's expensive step.
      const double cycles = config_.costs.rsa_sign_cycles(
          config_.private_key->n.bit_length());
      paused_ = true;
      charge(cycles, [self = shared_from_this(), encrypted] {
        self->paused_ = false;
        if (self->state_ != State::kWaitKeyEx) return;
        try {
          self->premaster_ =
              crypto::rsa_decrypt_pkcs1(*self->config_.private_key, encrypted);
        } catch (const std::runtime_error&) {
          self->fail("premaster decryption failed");
          return;
        }
        self->derive_keys();
        self->state_ = State::kWaitFinished;
        self->pump();
      });
      break;
    }
    case kHsFinished: {
      if (state_ != State::kWaitFinished) return fail("unexpected finished");
      const Bytes expected = finished_mac(/*client_side=*/!is_client_);
      const auto got_mac = r.bytes(expected.size());
      if (!got_mac || r.remaining() != 0 ||
          !crypto::ct_equal(*got_mac, expected)) {
        return fail("finished MAC mismatch");
      }
      if (is_client_) {
        finish_handshake();
      } else {
        transcript_.insert(transcript_.end(), body.begin(), body.end());
        Bytes fin{kHsFinished};
        const Bytes mac = finished_mac(/*client_side=*/false);
        fin.insert(fin.end(), mac.begin(), mac.end());
        send_record(kRecordHandshake, fin, /*encrypted=*/true);
        finish_handshake();
      }
      break;
    }
    default:
      fail("unknown handshake message");
  }
}

}  // namespace hipcloud::tls
