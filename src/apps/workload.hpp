#pragma once

#include <functional>
#include <memory>

#include "apps/http_client.hpp"
#include "apps/rubis.hpp"
#include "sim/stats.hpp"

namespace hipcloud::apps {

/// Result of a load-generation run.
struct LoadReport {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double duration_seconds = 0;
  sim::Summary latency_ms;

  double throughput_rps() const {
    return duration_seconds > 0
               ? static_cast<double>(completed) / duration_seconds
               : 0;
  }
};

/// What both load generators share: the HTTP client, the request source
/// (a fixed path when one is set, else the RUBiS mix) and the report,
/// which counts only results that arrive after the warm-up.
class LoadGenerator {
 protected:
  /// `config` is the generator's Config.
  template <typename Config>
  LoadGenerator(net::Node* node, net::TcpStack* tcp, const Config& config)
      : node_(node), client_(node, tcp, config.transport),
        mix_(config.mix, config.seed), fixed_path_(config.fixed_path),
        duration_(config.duration), warmup_(config.warmup) {}

  /// Opens the run now; it ends at deadline_.
  void begin() {
    started_at_ = node_->network().loop().now();
    deadline_ = started_at_ + duration_;
  }
  HttpRequest next_request();
  /// Counts one result, unless it arrived during the warm-up.
  void record(const std::optional<HttpResponse>& resp, sim::Duration latency);
  /// The report, its duration the run after the warm-up.
  const LoadReport& report() {
    report_.duration_seconds =
        sim::to_seconds(deadline_ - started_at_ - warmup_);
    return report_;
  }

  net::Node* node_;
  HttpClient client_;
  sim::Time deadline_ = 0;

 private:
  RubisRequestMix mix_;
  std::string fixed_path_;
  sim::Duration duration_;
  sim::Duration warmup_;
  sim::Time started_at_ = 0;
  LoadReport report_;
};

/// jmeter-style closed-loop load: N virtual users, each issuing the next
/// request as soon as (think time after) the previous response arrives.
/// Requests come from a RubisRequestMix unless a fixed path is set.
class ClosedLoopClients : private LoadGenerator {
 public:
  struct Config {
    int concurrency = 10;
    sim::Duration think_time = 0;
    sim::Duration duration = 30 * sim::kSecond;
    /// Ignore results during this initial window (ramp-up).
    sim::Duration warmup = 2 * sim::kSecond;
    net::Endpoint target;
    TransportConfig transport;
    RubisConfig mix;
    std::uint64_t seed = 1;
    /// When non-empty, every request GETs this fixed path instead of the
    /// RUBiS mix (used by the httperf-style comparisons).
    std::string fixed_path;
  };

  using DoneFn = std::function<void(const LoadReport&)>;

  ClosedLoopClients(net::Node* node, net::TcpStack* tcp, Config config);

  void start(DoneFn done);

 private:
  void user_loop(int user);

  Config config_;
  int active_users_ = 0;
  DoneFn done_;
};

/// httperf-style open-loop generator: requests at a fixed rate regardless
/// of completions, measuring response times.
class OpenLoopGenerator : private LoadGenerator {
 public:
  struct Config {
    double rate_rps = 120.0;  // the paper's httperf rate
    sim::Duration duration = 30 * sim::kSecond;
    sim::Duration warmup = 2 * sim::kSecond;
    net::Endpoint target;
    TransportConfig transport;
    RubisConfig mix;
    std::uint64_t seed = 1;
    std::string fixed_path;
    /// Poisson arrivals when true; evenly spaced (httperf default) when
    /// false.
    bool poisson = false;
  };

  using DoneFn = std::function<void(const LoadReport&)>;

  OpenLoopGenerator(net::Node* node, net::TcpStack* tcp, Config config);

  void start(DoneFn done);

 private:
  void schedule_next(sim::Time when);

  Config config_;
  sim::Xoshiro256 rng_;
  std::uint64_t outstanding_ = 0;
  bool generating_ = false;
  DoneFn done_;
};

/// iperf-style bulk TCP throughput measurement.
class IperfServer {
 public:
  IperfServer(net::Node* node, net::TcpStack* tcp, std::uint16_t port);

  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  std::uint64_t bytes_received_ = 0;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

class IperfClient {
 public:
  struct Report {
    double mbits_per_second = 0;
    std::uint64_t bytes_sent = 0;
  };
  using DoneFn = std::function<void(const Report&)>;

  /// Stream data to `dst` for `duration`, then report goodput measured at
  /// the sender (acked bytes / time), like iperf's sender-side report.
  static void run(net::Node* node, net::TcpStack* tcp,
                  const net::Endpoint& dst, sim::Duration duration,
                  DoneFn done);
};

}  // namespace hipcloud::apps
