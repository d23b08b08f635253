#include "apps/workload.hpp"

#include <cstring>

namespace hipcloud::apps {

// ---------------------------------------------------------------------------
// LoadGenerator

HttpRequest LoadGenerator::next_request() {
  if (!fixed_path_.empty()) {
    HttpRequest req;
    req.path = fixed_path_;
    return req;
  }
  return mix_.next();
}

void LoadGenerator::record(const std::optional<HttpResponse>& resp,
                           sim::Duration latency) {
  if (node_->network().loop().now() < started_at_ + warmup_) return;
  if (resp && resp->status == 200) {
    ++report_.completed;
    report_.latency_ms.add(sim::to_millis(latency));
  } else {
    ++report_.errors;
  }
}

// ---------------------------------------------------------------------------
// ClosedLoopClients

ClosedLoopClients::ClosedLoopClients(net::Node* node, net::TcpStack* tcp,
                                     Config config)
    : LoadGenerator(node, tcp, config), config_(std::move(config)) {
  client_.set_max_connections_per_endpoint(
      static_cast<std::size_t>(config_.concurrency) + 4);
}

void ClosedLoopClients::start(DoneFn done) {
  done_ = std::move(done);
  begin();
  active_users_ = config_.concurrency;
  for (int user = 0; user < config_.concurrency; ++user) {
    // Stagger user start slightly to avoid a synchronized burst.
    node_->network().loop().schedule(
        static_cast<sim::Duration>(user) * sim::kMillisecond,
        [this, user] { user_loop(user); });
  }
}

void ClosedLoopClients::user_loop(int user) {
  if (node_->network().loop().now() >= deadline_) {
    if (--active_users_ == 0 && done_) done_(report());
    return;
  }
  client_.request(
      config_.target, next_request(),
      [this, user](std::optional<HttpResponse> resp, sim::Duration latency) {
        record(resp, latency);
        if (config_.think_time > 0) {
          node_->network().loop().schedule(config_.think_time,
                                           [this, user] { user_loop(user); });
        } else {
          user_loop(user);
        }
      });
}

// ---------------------------------------------------------------------------
// OpenLoopGenerator

OpenLoopGenerator::OpenLoopGenerator(net::Node* node, net::TcpStack* tcp,
                                     Config config)
    : LoadGenerator(node, tcp, config), config_(std::move(config)),
      rng_(config_.seed ^ 0x517c) {
  client_.set_max_connections_per_endpoint(512);
}

void OpenLoopGenerator::start(DoneFn done) {
  done_ = std::move(done);
  begin();
  generating_ = true;
  schedule_next(node_->network().loop().now());
}

void OpenLoopGenerator::schedule_next(sim::Time when) {
  if (when >= deadline_) {
    generating_ = false;
    if (outstanding_ == 0 && done_) done_(report());
    return;
  }
  node_->network().loop().schedule_at(when, [this, when] {
    ++outstanding_;
    client_.request(
        config_.target, next_request(),
        [this](std::optional<HttpResponse> resp, sim::Duration latency) {
          --outstanding_;
          record(resp, latency);
          if (!generating_ && outstanding_ == 0 && done_) {
            auto done = std::move(done_);
            done_ = nullptr;
            done(report());
          }
        });
    sim::Duration gap;
    if (config_.poisson) {
      gap = static_cast<sim::Duration>(
          rng_.exponential(1.0 / config_.rate_rps) *
          static_cast<double>(sim::kSecond));
    } else {
      gap = static_cast<sim::Duration>(static_cast<double>(sim::kSecond) /
                                       config_.rate_rps);
    }
    schedule_next(when + std::max<sim::Duration>(gap, 1));
  });
}

// ---------------------------------------------------------------------------
// Iperf

IperfServer::IperfServer(net::Node* node, net::TcpStack* tcp,
                         std::uint16_t port) {
  (void)node;
  tcp->listen(port, [this](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data(
        [this](crypto::Buffer data) { bytes_received_ += data.size(); });
    conns_.push_back(std::move(conn));
  });
}

void IperfClient::run(net::Node* node, net::TcpStack* tcp,
                      const net::Endpoint& dst, sim::Duration duration,
                      DoneFn done) {
  auto conn = tcp->connect(dst);
  auto& loop = node->network().loop();
  const sim::Time deadline = loop.now() + duration;
  const sim::Time start = loop.now();

  // Feed the connection in chunks, keeping a bounded send queue — the
  // way iperf keeps the socket buffer full without unbounded memory. The
  // feeder is a self-contained copyable object that re-schedules a copy
  // of itself each tick (no self-capturing shared function, which would
  // be a reference cycle pinning the connection forever).
  constexpr std::size_t kChunk = 128 * 1024;
  constexpr std::size_t kQueueCap = 512 * 1024;
  struct Feeder {
    static crypto::Buffer chunk() {
      crypto::Buffer b = crypto::Buffer::allocate(nullptr, kChunk);
      std::memset(b.data(), 0x49, kChunk);  // 'I'
      return b;
    }

    std::shared_ptr<net::TcpConnection> conn;
    sim::EventLoop* loop;
    sim::Time deadline;
    sim::Time start;
    DoneFn done;

    void operator()() const {
      if (loop->now() >= deadline) {
        const std::uint64_t acked = conn->bytes_acked();
        Report report;
        report.bytes_sent = acked;
        report.mbits_per_second = static_cast<double>(acked) * 8.0 /
                                  sim::to_seconds(loop->now() - start) / 1e6;
        conn->close();
        if (done) done(report);
        return;
      }
      if (conn->established() && conn->send_queue_bytes() < kQueueCap) {
        conn->send(chunk());
      }
      loop->schedule(sim::kMillisecond, *this);
    }
  };
  const Feeder feeder{conn, &loop, deadline, start, std::move(done)};
  if (conn->established()) {
    feeder();
  } else {
    conn->on_connect([feeder] { feeder(); });
    // Also arm a watchdog in case the connection never comes up.
    loop.schedule(duration, [conn, done = feeder.done, &loop, deadline] {
      if (!conn->established() && loop.now() >= deadline) {
        Report report;
        if (done) done(report);
      }
    });
  }
}

}  // namespace hipcloud::apps
