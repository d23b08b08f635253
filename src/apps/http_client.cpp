#include "apps/http_client.hpp"

#include "sim/log.hpp"

namespace hipcloud::apps {

HttpClient::HttpClient(net::Node* node, net::TcpStack* tcp,
                       TransportConfig transport)
    : node_(node), tcp_(tcp), transport_(std::move(transport)) {}

void HttpClient::request(const net::Endpoint& dst, HttpRequest req,
                         ResponseFn done) {
  req.headers["connection"] = "keep-alive";
  const std::uint64_t wid = next_waiting_id_++;
  pools_[dst].waiting.push_back(
      Waiting{std::move(req), std::move(done), wid});
  // Queue-time timeout: covers requests stuck behind a connection that
  // never establishes. Once issued, the per-issue timer takes over and
  // this becomes a no-op (the id is gone from the queue).
  node_->network().loop().schedule(timeout_, [this, dst, wid] {
    const auto pit = pools_.find(dst);
    if (pit == pools_.end()) return;
    auto& waiting = pit->second.waiting;
    for (auto it = waiting.begin(); it != waiting.end(); ++it) {
      if (it->id == wid) {
        auto expired = std::move(it->done);
        waiting.erase(it);
        ++failures_;
        expired(std::nullopt, timeout_);
        return;
      }
    }
  });
  dispatch(dst);
}

void HttpClient::dispatch(const net::Endpoint& dst) {
  Pool& pool = pools_[dst];
  while (!pool.waiting.empty()) {
    // Find an idle connected connection.
    std::uint64_t chosen = 0;
    for (auto& [id, conn] : pool.conns) {
      if (!conn->busy && conn->connected && !conn->dead) {
        chosen = id;
        break;
      }
    }
    if (chosen == 0) {
      // Any connection still handshaking will pick work up when ready.
      bool pending_conn = false;
      for (auto& [id, conn] : pool.conns) {
        if (!conn->connected && !conn->dead) {
          pending_conn = true;
          break;
        }
      }
      if (pool.conns.size() >= max_conns_) return;
      if (pending_conn && pool.conns.size() >= pool.waiting.size()) return;

      // Open a new connection.
      const std::uint64_t id = next_conn_id_++;
      auto conn = std::make_shared<Conn>();
      std::shared_ptr<net::TcpConnection> tcp_conn;
      try {
        tcp_conn = tcp_->connect(dst);
      } catch (const std::runtime_error&) {
        // No route/source: fail one waiting request.
        Waiting w = std::move(pool.waiting.front());
        pool.waiting.pop_front();
        ++failures_;
        w.done(std::nullopt, 0);
        continue;
      }
      conn->stream = make_client_stream(std::move(tcp_conn), node_,
                                        transport_);
      pool.conns[id] = conn;
      conn->stream->on_ready([this, dst, id] {
        const auto pit = pools_.find(dst);
        if (pit == pools_.end()) return;
        const auto cit = pit->second.conns.find(id);
        if (cit == pit->second.conns.end()) return;
        cit->second->connected = true;
        dispatch(dst);
      });
      conn->stream->on_data([this, dst, id](crypto::Buffer chunk) {
        const auto pit = pools_.find(dst);
        if (pit == pools_.end()) return;
        const auto cit = pit->second.conns.find(id);
        if (cit == pit->second.conns.end()) return;
        auto& c = *cit->second;
        c.parser.feed(std::move(chunk));
        if (c.parser.error()) {
          c.dead = true;
          finish(dst, id, std::nullopt);
          return;
        }
        if (auto resp = c.parser.next_response()) {
          finish(dst, id, std::move(resp));
        }
      });
      conn->stream->on_close([this, dst, id] {
        const auto pit = pools_.find(dst);
        if (pit == pools_.end()) return;
        const auto cit = pit->second.conns.find(id);
        if (cit == pit->second.conns.end()) return;
        cit->second->dead = true;
        if (cit->second->busy) {
          finish(dst, id, std::nullopt);
          return;
        }
        const bool was_connecting = !cit->second->connected;
        pit->second.conns.erase(cit);
        // A connection that died before establishing means the target is
        // unreachable: fail one waiting request instead of retrying
        // forever.
        if (was_connecting && !pit->second.waiting.empty()) {
          Waiting w = std::move(pit->second.waiting.front());
          pit->second.waiting.pop_front();
          ++failures_;
          w.done(std::nullopt, 0);
          dispatch(dst);
        }
      });
      return;  // wait for on_ready to dispatch
    }

    Waiting w = std::move(pool.waiting.front());
    pool.waiting.pop_front();
    issue(dst, chosen, std::move(w.req), std::move(w.done));
  }
}

void HttpClient::issue(const net::Endpoint& dst, std::uint64_t conn_id,
                       HttpRequest req, ResponseFn done) {
  Pool& pool = pools_[dst];
  auto conn = pool.conns.at(conn_id);
  conn->busy = true;
  conn->done = std::move(done);
  conn->issued_at = node_->network().loop().now();
  conn->timeout_timer =
      node_->network().loop().schedule(timeout_, [this, dst, conn_id] {
        const auto pit = pools_.find(dst);
        if (pit == pools_.end()) return;
        const auto cit = pit->second.conns.find(conn_id);
        if (cit == pit->second.conns.end() || !cit->second->busy) return;
        cit->second->timer_armed = false;
        cit->second->dead = true;
        cit->second->stream->close();
        finish(dst, conn_id, std::nullopt);
      });
  conn->timer_armed = true;
  ++requests_sent_;
  conn->stream->send(req.serialize(&node_->network().buffer_pool()));
}

void HttpClient::finish(const net::Endpoint& dst, std::uint64_t conn_id,
                        std::optional<HttpResponse> resp) {
  Pool& pool = pools_[dst];
  const auto cit = pool.conns.find(conn_id);
  if (cit == pool.conns.end()) return;
  auto conn = cit->second;
  if (!conn->busy) return;
  conn->busy = false;
  if (conn->timer_armed) {
    node_->network().loop().cancel(conn->timeout_timer);
    conn->timer_armed = false;
  }
  const sim::Duration latency =
      node_->network().loop().now() - conn->issued_at;
  auto done = std::move(conn->done);
  conn->done = nullptr;
  if (!resp) ++failures_;
  if (conn->dead) pool.conns.erase(conn_id);
  if (done) done(std::move(resp), latency);
  dispatch(dst);
}

}  // namespace hipcloud::apps
