#include "apps/http_server.hpp"

#include "sim/log.hpp"

namespace hipcloud::apps {

HttpServer::HttpServer(net::Node* node, net::TcpStack* tcp,
                       std::uint16_t port, TransportConfig transport)
    : node_(node), transport_(std::move(transport)) {
  tcp->listen(port, [this](std::shared_ptr<net::TcpConnection> conn) {
    on_accept(std::move(conn));
  });
}

void HttpServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  const std::uint64_t id = next_id_++;
  auto session = std::make_shared<Session>();
  session->stream = make_server_stream(std::move(conn), node_, transport_);
  sessions_[id] = session;

  session->stream->on_data([this, id](crypto::Buffer chunk) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    it->second->parser.feed(std::move(chunk));
    if (it->second->parser.error()) {
      it->second->stream->close();
      sessions_.erase(it);
      return;
    }
    pump(id);
  });
  session->stream->on_close([this, id] {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      it->second->closed = true;
      if (!it->second->busy) sessions_.erase(it);
    }
  });
}

void HttpServer::pump(std::uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  auto session = it->second;
  if (session->busy || session->closed) return;
  auto request = session->parser.next_request();
  if (!request) return;
  session->busy = true;

  // Charge request-processing CPU, then hand to the handler.
  node_->cpu().run(request_cycles_, [this, id, session,
                                     req = std::move(*request)] {
    if (session->closed) {
      session->busy = false;
      sessions_.erase(id);
      return;
    }
    auto respond = [this, id, session](HttpResponse resp) {
      if (session->closed) {
        session->busy = false;
        sessions_.erase(id);
        return;
      }
      session->stream->send(resp.serialize(&node_->network().buffer_pool()));
      ++requests_served_;
      session->busy = false;
      pump(id);  // next pipelined request, if any
    };
    if (handler_) {
      handler_(req, std::move(respond));
    } else {
      respond(HttpResponse::make(404, crypto::to_bytes("no handler")));
    }
  });
}

}  // namespace hipcloud::apps
