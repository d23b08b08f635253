#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/stream.hpp"
#include "sim/fixed_delay_queue.hpp"

namespace hipcloud::apps {

// The request/response layer under every tier: one pooled client and one
// session server, which HTTP and the DB protocol parameterise with their
// framing and with how they serve one request. A framer is the receive
// side of one connection:
//   void feed(crypto::Buffer&& chunk);
//   bool error() const;             // the bytes can no longer be framed
//   std::optional<Message> next();  // the next complete message
// DESIGN.md §5c states the failure rules both classes apply.

/// Client side: per-destination pools of keep-alive connections, one
/// outstanding request per connection, new connections opened on demand up
/// to a cap. `Protocol` supplies the types Request, Reply and Framer (of
/// replies), and
///   static void write(Stream&, Request&&, crypto::BufferPool*);
///   static std::optional<Reply> decode(Message&&, crypto::BufferPool*);
/// A reply that does not decode fails only its own request. The optional
/// timeout, fixed at construction, bounds a request's wait in the queue
/// and, once sent, its wait for the reply, which then also closes the
/// connection.
template <typename Protocol>
class PooledClient {
 public:
  using Request = typename Protocol::Request;
  using Reply = typename Protocol::Reply;
  /// The reply, or nullopt when the request failed, and the request's
  /// latency (issue -> reply).
  using ReplyFn = std::function<void(std::optional<Reply>, sim::Duration)>;

  PooledClient(net::Node* node, net::TcpStack* tcp, TransportConfig transport,
               std::size_t max_conns, std::optional<sim::Duration> timeout)
      : node_(node), tcp_(tcp), transport_(std::move(transport)),
        max_conns_(max_conns) {
    if (timeout) expiries_.emplace(loop(), *timeout);
  }
  // Callbacks hold the addresses of the client's pools.
  PooledClient(const PooledClient&) = delete;
  PooledClient& operator=(const PooledClient&) = delete;

  void request(const net::Endpoint& dst, Request&& req, ReplyFn&& done) {
    Pool& pool = pools_.try_emplace(dst, this, dst).first->second;
    const std::uint64_t wid = next_waiting_id_++;
    pool.waiting.push_back(Waiting{std::move(req), std::move(done), wid});
    // Queue-time timeout: covers requests stuck behind a connection that
    // never establishes. Once issued, the per-issue timer takes over and
    // this becomes a no-op (the id is gone from the queue).
    if (expiries_) expiries_->push(Expiry{&pool, wid});
    pool.dispatch();
  }

  void set_max_connections_per_endpoint(std::size_t n) { max_conns_ = n; }

  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t failures() const { return failures_; }

 private:
  struct Conn {
    std::unique_ptr<Stream> stream;
    typename Protocol::Framer framer;
    bool connected = false;
    bool busy = false;
    bool dead = false;
    // The outstanding request.
    ReplyFn done;
    sim::Time issued_at = 0;
    sim::EventHandle timer;
    bool timer_armed = false;
  };
  struct Waiting {
    Request req;
    ReplyFn done;
    std::uint64_t id;
  };

  /// The connections to one destination and the requests waiting for one.
  /// Pools are never erased, so callbacks find theirs by address.
  struct Pool {
    Pool(PooledClient* c, const net::Endpoint& d) : client(c), dst(d) {}
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    void dispatch() {
      while (!waiting.empty()) {
        // The first idle, established, live connection in id order.
        const auto idle =
            std::find_if(conns.begin(), conns.end(), [](const auto& c) {
              return c.second->connected && !c.second->busy && !c.second->dead;
            });
        if (idle == conns.end()) {
          // Connections still handshaking pick work up when ready.
          const bool handshaking =
              std::any_of(conns.begin(), conns.end(), [](const auto& c) {
                return !c.second->connected && !c.second->dead;
              });
          if (conns.size() >= client->max_conns_) return;
          if (handshaking && conns.size() >= waiting.size()) return;
          if (open()) return;  // its on_ready dispatches
          fail_first();        // no route or source
          continue;
        }
        Waiting w = std::move(waiting.front());
        waiting.pop_front();
        issue(idle->first, std::move(w.req), std::move(w.done));
      }
    }

    /// Opens a connection; false when connect throws.
    bool open() {
      const std::uint64_t id = client->next_conn_id_++;
      std::shared_ptr<net::TcpConnection> tcp_conn;
      try {
        tcp_conn = client->tcp_->connect(dst);
      } catch (const std::runtime_error&) {
        return false;
      }
      auto conn = std::make_shared<Conn>();
      conn->stream = make_client_stream(std::move(tcp_conn), client->node_,
                                        client->transport_);
      conns[id] = conn;
      conn->stream->on_ready([this, id] {
        const auto it = conns.find(id);
        if (it == conns.end()) return;
        it->second->connected = true;
        dispatch();
      });
      conn->stream->on_data([this, id](crypto::Buffer chunk) {
        const auto it = conns.find(id);
        if (it == conns.end()) return;
        Conn& c = *it->second;
        c.framer.feed(std::move(chunk));
        if (c.framer.error()) return close(id);
        if (auto msg = c.framer.next()) {
          finish(id, Protocol::decode(std::move(*msg), &client->pool()));
        }
      });
      conn->stream->on_close([this, id] { close(id); });
      return true;
    }

    void issue(std::uint64_t id, Request&& req, ReplyFn&& done) {
      const auto conn = conns.at(id);
      conn->busy = true;
      conn->done = std::move(done);
      conn->issued_at = client->loop().now();
      if (client->expiries_) {
        const sim::Duration timeout = client->expiries_->delay();
        conn->timer = client->loop().schedule(timeout, [this, id] {
          const auto it = conns.find(id);
          if (it == conns.end() || !it->second->busy) return;
          it->second->timer_armed = false;
          close(id);
        });
        conn->timer_armed = true;
      }
      ++client->requests_sent_;
      Protocol::write(*conn->stream, std::move(req), &client->pool());
    }

    void finish(std::uint64_t id, std::optional<Reply> reply) {
      const auto it = conns.find(id);
      if (it == conns.end()) return;
      const auto conn = it->second;
      if (!conn->busy) return;
      conn->busy = false;
      if (conn->timer_armed) {
        client->loop().cancel(conn->timer);
        conn->timer_armed = false;
      }
      const sim::Duration latency = client->loop().now() - conn->issued_at;
      auto done = std::move(conn->done);
      conn->done = nullptr;
      if (!reply) ++client->failures_;
      if (conn->dead) conns.erase(it);
      if (done) done(std::move(reply), latency);
      dispatch();
    }

    /// Closes the connection's stream, then applies the on-close rule. A
    /// stream the peer closed comes here too, so this side closes as well
    /// and neither TcpStack keeps the connection half-closed.
    void close(std::uint64_t id) {
      const auto it = conns.find(id);
      if (it == conns.end() || it->second->dead) return;
      const auto conn = it->second;
      conn->dead = true;  // a close callback from the stream stops above
      conn->stream->close();
      if (conn->busy) return finish(id, std::nullopt);
      const bool was_connecting = !conn->connected;
      conns.erase(id);
      // A connection that died before establishing means the target is
      // unreachable: fail one waiting request instead of retrying forever.
      if (was_connecting && !waiting.empty()) {
        fail_first();
        dispatch();
      }
    }

    void fail_first() {
      Waiting w = std::move(waiting.front());
      waiting.pop_front();
      ++client->failures_;
      w.done(std::nullopt, 0);
    }

    /// The queue-time timeout of request `wid`, if it still waits.
    void expire(std::uint64_t wid) {
      const auto it =
          std::find_if(waiting.begin(), waiting.end(),
                       [wid](const Waiting& w) { return w.id == wid; });
      if (it == waiting.end()) return;
      auto expired = std::move(it->done);
      waiting.erase(it);
      ++client->failures_;
      expired(std::nullopt, client->expiries_->delay());
    }

    PooledClient* client;
    net::Endpoint dst;
    std::map<std::uint64_t, std::shared_ptr<Conn>> conns;
    std::deque<Waiting> waiting;
  };

  /// A request's queue-time timeout, parked in `expiries_`.
  struct Expiry {
    Pool* pool;
    std::uint64_t wid;
    void operator()() const { pool->expire(wid); }
  };

  sim::EventLoop& loop() { return node_->network().loop(); }
  crypto::BufferPool& pool() { return node_->network().buffer_pool(); }

  net::Node* node_;
  net::TcpStack* tcp_;
  TransportConfig transport_;
  std::size_t max_conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_waiting_id_ = 1;
  std::map<net::Endpoint, Pool> pools_;
  // Every request's queue-time timeout, built when the client has a
  // timeout: its delay() is the timeout.
  std::optional<sim::FixedDelayQueue<Expiry>> expiries_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t failures_ = 0;
};

/// Server side: listens on a port and serves one request at a time per
/// connection, in arrival order (the thttpd-class web servers and the
/// MySQL server of the paper's setup). `Framer` frames the requests;
/// `serve` is how the protocol serves one of them.
template <typename Framer>
class SessionServer {
  struct Session;

 public:
  using Message = typename decltype(std::declval<Framer&>().next())::value_type;

  /// The way back from one request to its session: `serve` ends each
  /// request with one send(), or with drop() once the session has closed.
  class Reply {
   public:
    /// False once the peer has gone or its bytes could not be framed.
    bool open() const { return !session_->closed; }
    void drop() const {
      session_->busy = false;
      server_->sessions_.erase(id_);
    }
    /// Sends what `make()` returns, then serves the session's next request;
    /// a closed session drops the request instead and builds no reply.
    template <typename Make>
    void send(Make&& make) const {
      if (!open()) return drop();
      session_->stream->send(make());
      ++server_->replies_sent_;
      session_->busy = false;
      server_->pump(id_);
    }

   private:
    friend class SessionServer;
    Reply(SessionServer* server, std::uint64_t id,
          std::shared_ptr<Session> session)
        : server_(server), id_(id), session_(std::move(session)) {}

    SessionServer* server_;
    std::uint64_t id_;
    std::shared_ptr<Session> session_;
  };

  using Serve = std::function<void(Message&&, Reply)>;

  SessionServer(net::Node* node, net::TcpStack* tcp, std::uint16_t port,
                TransportConfig transport, Serve serve)
      : node_(node), transport_(std::move(transport)),
        serve_(std::move(serve)) {
    tcp->listen(port, [this](std::shared_ptr<net::TcpConnection> conn) {
      on_accept(std::move(conn));
    });
  }
  // Callbacks and pending replies hold the server's address.
  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Replies actually sent.
  std::uint64_t replies_sent() const { return replies_sent_; }
  std::uint64_t sessions() const { return sessions_.size(); }

 private:
  struct Session {
    std::unique_ptr<Stream> stream;
    Framer framer;
    bool busy = false;  // a request is being served
    bool closed = false;
  };

  void on_accept(std::shared_ptr<net::TcpConnection> conn) {
    const std::uint64_t id = next_id_++;
    auto session = std::make_shared<Session>();
    session->stream = make_server_stream(std::move(conn), node_, transport_);
    sessions_[id] = session;
    session->stream->on_data([this, id](crypto::Buffer chunk) {
      const auto it = sessions_.find(id);
      if (it == sessions_.end()) return;
      Session& s = *it->second;
      s.framer.feed(std::move(chunk));
      if (s.framer.error()) return close(id);
      pump(id);
    });
    session->stream->on_close([this, id] { close(id); });
  }

  /// Closes the session's stream, also when the peer closed first, so
  /// neither TcpStack keeps the connection half-closed. A session that is
  /// idle then goes at once; a busy one is marked and goes when its
  /// request ends.
  void close(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second->closed) return;
    const auto session = it->second;
    session->closed = true;  // a close callback from the stream stops above
    session->stream->close();
    if (!session->busy) sessions_.erase(id);
  }

  /// Serves the session's next complete request, unless it is busy or
  /// closed.
  void pump(std::uint64_t id) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    auto session = it->second;
    if (session->busy || session->closed) return;
    auto msg = session->framer.next();
    if (!msg) return;
    session->busy = true;
    serve_(std::move(*msg), Reply(this, id, std::move(session)));
  }

  net::Node* node_;
  TransportConfig transport_;
  Serve serve_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t replies_sent_ = 0;
};

}  // namespace hipcloud::apps
