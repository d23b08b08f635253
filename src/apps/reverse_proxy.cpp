#include "apps/reverse_proxy.hpp"

#include <stdexcept>
#include <utility>

#include "sim/log.hpp"

namespace hipcloud::apps {

ReverseProxy::ReverseProxy(net::Node* node, net::TcpStack* tcp,
                           std::uint16_t port, TransportConfig front,
                           TransportConfig back,
                           std::vector<net::Endpoint> backends,
                           Balance balance, HealthConfig health)
    : node_(node), server_(node, tcp, port, std::move(front)),
      // Fails towards the client well before the client's own timeout
      // (HAProxy-style server timeout).
      client_(node, tcp, std::move(back), health.upstream_timeout),
      backends_(std::move(backends)),
      balance_(balance), health_(std::move(health)),
      outstanding_(backends_.size(), 0), dispatched_(backends_.size(), 0),
      healthy_(backends_.size(), 1), consec_failures_(backends_.size(), 0) {
  if (backends_.empty()) {
    throw std::invalid_argument("ReverseProxy: no backends");
  }
  // Proxying is cheap per request compared to a dynamic endpoint.
  server_.set_request_cycles(25e3);
  server_.set_handler(
      [this](const HttpRequest& req, HttpServer::RespondFn respond) {
        dispatch(req, std::move(respond), 0);
      });
}

std::size_t ReverseProxy::pick_backend() {
  const std::size_t n = backends_.size();
  const std::size_t start = rr_next_++ % n;
  if (balance_ == Balance::kRoundRobin) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (start + k) % n;
      if (healthy_[idx]) return idx;
    }
    return start;  // everything ejected: fail open rather than refuse
  }
  // Least-outstanding. Scanning from a rotating start index and keeping
  // only strict improvements makes ties rotate across backends; scanning
  // always from 0 (std::min_element) pinned every tie — in particular
  // the all-zeros state at startup and after idle — to backend 0.
  bool found = false;
  std::size_t best = start;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (start + k) % n;
    if (!healthy_[idx]) continue;
    if (!found || outstanding_[idx] < outstanding_[best]) {
      best = idx;
      found = true;
    }
  }
  return best;
}

void ReverseProxy::dispatch(HttpRequest req, HttpServer::RespondFn respond,
                            int attempt) {
  const std::size_t idx = pick_backend();
  ++outstanding_[idx];
  ++dispatched_[idx];
  client_.request(
      backends_[idx], req,
      [this, idx, req, attempt, respond = std::move(respond)](
          std::optional<HttpResponse> resp, sim::Duration) mutable {
        --outstanding_[idx];
        if (resp) {
          consec_failures_[idx] = 0;
          ++relayed_;
          respond(std::move(*resp));
          return;
        }
        note_failure(idx);
        // Redispatch idempotent requests once the backoff elapses; a
        // different backend is preferred automatically because the
        // failed one is either ejected or deprioritised by rotation.
        if (req.method == "GET" && attempt < health_.retry_limit) {
          ++retries_;
          node_->network().loop().schedule(
              health_.retry_backoff,
              [this, req = std::move(req), attempt,
               respond = std::move(respond)]() mutable {
                dispatch(std::move(req), std::move(respond), attempt + 1);
              });
          return;
        }
        ++errors_;
        respond(
            HttpResponse::make(502, crypto::to_bytes("upstream failure")));
      });
}

void ReverseProxy::note_failure(std::size_t idx) {
  ++consec_failures_[idx];
  if (healthy_[idx] && consec_failures_[idx] >= health_.max_failures) {
    eject(idx);
  }
}

void ReverseProxy::eject(std::size_t idx) {
  healthy_[idx] = 0;
  ++ejections_;
  HIPCLOUD_LOG(sim::LogLevel::kWarn, node_->network().loop().now(), "proxy",
               node_->name() + ": backend " + std::to_string(idx) +
                   " ejected after " +
                   std::to_string(consec_failures_[idx]) +
                   " consecutive failures");
  node_->network().loop().schedule(health_.reprobe_interval,
                                   [this, idx] { probe(idx); });
}

void ReverseProxy::probe(std::size_t idx) {
  if (healthy_[idx]) return;
  ++probes_sent_;
  HttpRequest req;
  req.path = health_.probe_path;
  client_.request(
      backends_[idx], std::move(req),
      [this, idx](std::optional<HttpResponse> resp, sim::Duration) {
        if (resp && resp->status < 500) {
          healthy_[idx] = 1;
          consec_failures_[idx] = 0;
          ++revivals_;
          HIPCLOUD_LOG(sim::LogLevel::kInfo,
                       node_->network().loop().now(), "proxy",
                       node_->name() + ": backend " +
                           std::to_string(idx) + " back in rotation");
          return;
        }
        node_->network().loop().schedule(health_.reprobe_interval,
                                         [this, idx] { probe(idx); });
      });
}

}  // namespace hipcloud::apps
