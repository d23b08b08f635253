// perfbench driver: one repetition of one benchmark workload.
//
//   perfbench_driver <fig2_sweep|sharded_rubis|path_bulk> --seed N
//                    [--trace] [--workers W]
//
// Builds the workload's worlds through the public API of src/core,
// src/cloud and src/apps, times every call from outside with
// steady_clock, reads the public counters, and prints one JSON object on
// stdout: host totals (wall, CPU, peak RSS), host facts, and one record
// per world with its simulated outputs (determinism hash, request counts,
// Fig. 2 / Fig. 3 numbers), its spans and its counters. With --trace the
// run phase is driven in fixed virtual-time slices and every span is
// listed. perfbench/run.py repeats this binary, checks the outputs and
// derives the metrics; perfbench/README.md documents both.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cloud/shard_fabric.hpp"
#include "core/path_lab.hpp"
#include "core/sharded_service.hpp"
#include "core/testbed.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_mb.hpp"

namespace {

using namespace hipcloud;
using Clock = std::chrono::steady_clock;

// --- workload constants ------------------------------------------------------

/// Fixed sweep-thread count for fig2_sweep (never derived from the host).
constexpr unsigned kSweepThreads = 4;
/// The paper's Fig. 2 client counts and arms (bench/fig2_common.hpp grid).
constexpr int kFig2Clients[] = {2, 3, 4, 6, 10, 20, 30, 50};
constexpr const char* kArmNames[] = {"basic", "hip", "ssl", "hip_accel"};
constexpr sim::Duration kFig2Duration = 30 * sim::kSecond;
constexpr sim::Duration kFig2Slice = sim::kSecond;

/// sharded_rubis: fig_scale's 64-client RUBiS point (8 racks x 8 users).
constexpr std::size_t kRacks = 8;
constexpr int kUsersPerRack = 8;
constexpr sim::Duration kShardDuration = 4 * sim::kSecond;
constexpr sim::Duration kShardWarmup = sim::kSecond;
constexpr sim::Duration kShardDrain = 3 * sim::kSecond;
constexpr sim::Duration kShardSlice = 100 * sim::kMillisecond;

/// path_bulk: one bulk iperf (MSS-sized segments) and one ping train
/// (56-byte echoes) per path.
constexpr core::PathLab::Path kPaths[] = {
    core::PathLab::Path::kIpv4, core::PathLab::Path::kHit,
    core::PathLab::Path::kLsi, core::PathLab::Path::kHitTeredo};
constexpr const char* kPathNames[] = {"ipv4", "hit", "lsi", "hit_teredo"};
constexpr sim::Duration kIperfDuration = 10 * sim::kSecond;
constexpr int kEchoes = 2000;

/// Seed of the checked-in service configurations. Host identities,
/// certificates and TLS seeds (and, in sharded_rubis, the request
/// streams) stay at it for every workload seed, so a seed changes the
/// simulated inputs but not how long key generation happens to take.
constexpr std::uint64_t kServiceSeed = 1;

// --- spans and world records ---------------------------------------------

struct Span {
  int id;
  int parent;  // -1 for a world's root span
  const char* name;
  double start;  // seconds since the repetition started
  double end;
  std::uint64_t events;  // events fired inside the span (0 if not counted)
};

/// One simulated world's outputs: its determinism hash, named numbers
/// (spans in seconds, counters, simulated results) and, when traced, its
/// spans. Span ids are local to the world; run.py keys them by world.
struct World {
  std::string name;
  std::uint64_t hash = 0;
  std::vector<std::pair<const char*, double>> fields;
  std::vector<std::uint64_t> shard_events;
  std::vector<Span> spans;

  void set(const char* key, double value) { fields.emplace_back(key, value); }
  void set(const char* key, std::uint64_t value) {
    fields.emplace_back(key, static_cast<double>(value));
  }
};

/// Records spans of one world when tracing is on; otherwise only hands
/// out timestamps.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin, World& world)
      : on_(on), origin_(origin), world_(world) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  /// Add a finished span; returns its id (or -1 when tracing is off).
  int add(const char* name, int parent, double start, double end,
          std::uint64_t events = 0) {
    if (!on_) return -1;
    const int id = static_cast<int>(world_.spans.size());
    world_.spans.push_back(Span{id, parent, name, start, end, events});
    return id;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  World& world_;
};

void add_perf(World& w, const sim::PerfCounters& p) {
  w.set("events_fired", p.events_fired);
  w.set("events_scheduled", p.events_scheduled);
  w.set("events_cancelled", p.events_cancelled);
  w.set("packets_delivered", p.packets_delivered);
  w.set("pool_misses", p.pool_misses);
  w.set("bytes_copied", p.payload_bytes_copied);
}

/// BEX and ESP totals of the given daemons; ESP counts packets and bytes
/// sent plus received.
void add_hip(World& w, const std::vector<const hip::HipDaemon*>& daemons) {
  std::uint64_t bex = 0, packets = 0, bytes = 0;
  for (const hip::HipDaemon* d : daemons) {
    if (d == nullptr) continue;
    bex += d->stats().bex_completed;
    packets += d->stats().esp_packets_out + d->stats().esp_packets_in;
    bytes += d->stats().esp_bytes_out + d->stats().esp_bytes_in;
  }
  w.set("bex_completed", bex);
  w.set("esp_packets", packets);
  w.set("esp_bytes", bytes);
}

// --- fig2_sweep ----------------------------------------------------------

/// Testbed::run_closed_loop, driven in kFig2Slice steps of virtual time.
/// Same users, same seed, same stop rule; only the loop is entered once
/// per slice, so every world hash must match the untraced run.
apps::LoadReport sliced_closed_loop(core::Testbed& bed,
                                    const core::TestbedConfig& cfg,
                                    int clients, Tracer& tr, int parent) {
  apps::ClosedLoopClients::Config cc;
  cc.concurrency = clients;
  cc.duration = kFig2Duration;
  cc.target = bed.service().frontend();
  cc.mix = cfg.deployment.dataset;
  cc.seed = cfg.seed ^ static_cast<std::uint64_t>(clients) << 8;
  apps::ClosedLoopClients users(bed.client_node(), &bed.client_tcp(), cc);
  sim::EventLoop& loop = bed.network().loop();
  apps::LoadReport report;
  bool done = false;
  users.start([&](const apps::LoadReport& r) {
    report = r;
    done = true;
    loop.stop();
  });
  while (!done && !loop.idle()) {
    const double t0 = tr.now();
    const std::uint64_t ev0 = loop.perf().events_fired;
    loop.run(loop.now() + kFig2Slice);
    tr.add("run.slice", parent, t0, tr.now(), loop.perf().events_fired - ev0);
  }
  return report;
}

World fig2_world(std::uint64_t seed, int arm, int clients, bool trace,
                 Clock::time_point origin) {
  World w;
  w.name = std::string(kArmNames[arm]) + "/" + std::to_string(clients);
  Tracer tr(trace, origin, w);

  core::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.deployment.seed = kServiceSeed;
  constexpr core::SecurityMode kModes[] = {
      core::SecurityMode::kBasic, core::SecurityMode::kHip,
      core::SecurityMode::kSsl, core::SecurityMode::kHip};
  cfg.deployment.mode = kModes[arm];
  if (arm == 3) cfg.deployment.hip.costs = crypto::CostModel::accelerated();

  const double t0 = tr.now();
  core::Testbed bed(cfg);  // topology, identities, keys, BEX warm-up
  const double t1 = tr.now();
  const std::uint64_t ev0 = bed.network().perf().events_fired;
  const int root = tr.add("world", -1, t0, t0);  // end patched below
  tr.add("build", root, t0, t1);
  int run_span = -1;
  apps::LoadReport report;
  if (trace) {
    run_span = tr.add("run", root, t1, t1);
    report = sliced_closed_loop(bed, cfg, clients, tr, run_span);
  } else {
    report = bed.run_closed_loop(clients, kFig2Duration);
  }
  const double t2 = tr.now();
  const std::uint64_t run_events = bed.network().perf().events_fired - ev0;

  w.hash = bed.network().perf().determinism_hash;
  w.set("completed", report.completed);
  w.set("errors", report.errors);
  w.set("attempted", report.completed + report.errors);
  w.set("failed", report.errors);
  w.set("rps", report.throughput_rps());
  w.set("latency_ms", report.latency_ms.mean());
  w.set("run_events", run_events);
  add_perf(w, bed.network().perf());
  core::SecureService& svc = bed.service();
  std::vector<const hip::HipDaemon*> daemons = {svc.lb_hip(), svc.db_hip()};
  for (int i = 0; svc.lb_hip() != nullptr && i < svc.config().web_servers;
       ++i) {
    daemons.push_back(svc.web_hip(static_cast<std::size_t>(i)));
  }
  add_hip(w, daemons);
  w.set("db_queries", svc.database().queries_executed());
  w.set("db_cache_hits", svc.database().cache_hits());
  w.set("proxy_retries", svc.proxy().retries());
  w.set("proxy_errors", svc.proxy().errors());
  const double t3 = tr.now();

  w.set("setup_s", t1 - t0);
  w.set("run_s", t2 - t1);
  w.set("check_s", t3 - t2);
  if (trace) {
    w.spans[static_cast<std::size_t>(run_span)].end = t2;
    w.spans[static_cast<std::size_t>(run_span)].events = run_events;
    tr.add("check", root, t2, t3);
    w.spans[static_cast<std::size_t>(root)].end = t3;
  }
  return w;
}

std::vector<World> run_fig2_sweep(std::uint64_t seed, bool trace,
                                  Clock::time_point origin) {
  // Largest worlds first (longest-processing-time order), so the sweep
  // does not end on one thread finishing a 50-client world alone.
  struct Job {
    int arm;
    int clients;
  };
  std::vector<Job> jobs;
  for (int c = static_cast<int>(std::size(kFig2Clients)) - 1; c >= 0; --c) {
    for (int arm = 0; arm < 4; ++arm) jobs.push_back({arm, kFig2Clients[c]});
  }
  std::vector<World> worlds(jobs.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      try {
        worlds[i] = fig2_world(seed, jobs[i].arm, jobs[i].clients, trace,
                               origin);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kSweepThreads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return worlds;
}

// --- sharded_rubis -------------------------------------------------------

std::vector<World> run_sharded_rubis(std::uint64_t seed, unsigned workers,
                                     bool trace, Clock::time_point origin) {
  World w;
  w.name = "sharded/" + std::to_string(kRacks * kUsersPerRack);
  Tracer tr(trace, origin, w);

  const double t0 = tr.now();
  cloud::FabricConfig fcfg;
  fcfg.racks = kRacks;
  fcfg.hosts_per_rack = 1;
  fcfg.vms_per_host = 1;
  fcfg.seed = seed;
  cloud::ShardedFabric fabric(fcfg);
  core::ShardedServiceConfig scfg;
  scfg.mode = core::SecurityMode::kHip;
  scfg.dataset.items = 500;
  scfg.dataset.users = 100;
  scfg.dataset.bids = 1000;
  scfg.clients_per_rack = kUsersPerRack;
  scfg.duration = kShardDuration;
  scfg.seed = kServiceSeed;
  core::ShardedService service(fabric, scfg);
  const double t1 = tr.now();
  service.prepare();
  fabric.run(kShardWarmup, workers);  // BEX warm-up window
  const double t2 = tr.now();

  sim::ShardCoordinator& coord = fabric.world().coordinator();
  const std::uint64_t wait0 = coord.barrier_wait_ns();
  const std::uint64_t ev0 = fabric.merged_perf().events_fired;
  const int root = tr.add("world", -1, t0, t0);
  tr.add("build", root, t0, t1);
  tr.add("warmup", root, t1, t2);
  service.start_clients();
  const sim::Time end = kShardWarmup + kShardDuration + kShardDrain;
  if (trace) {
    const int run_span = tr.add("run", root, t2, t2);
    for (sim::Time until = kShardWarmup + kShardSlice;;
         until += kShardSlice) {
      const sim::Time stop = std::min(until, end);
      const double s0 = tr.now();
      const std::size_t fired = fabric.run(stop, workers);
      tr.add("run.slice", run_span, s0, tr.now(), fired);
      if (stop == end) break;
    }
    w.spans[static_cast<std::size_t>(run_span)].end = tr.now();
  } else {
    fabric.run(end, workers);
  }
  const double t3 = tr.now();

  const sim::PerfCounters perf = fabric.merged_perf();
  const apps::LoadReport report = service.report();
  w.hash = perf.determinism_hash;
  w.set("workers", static_cast<std::uint64_t>(workers));
  w.set("completed", report.completed);
  w.set("errors", report.errors);
  w.set("attempted", report.completed + report.errors);
  w.set("failed", report.errors);
  w.set("run_events", perf.events_fired - ev0);
  add_perf(w, perf);
  w.set("epochs", perf.shard_epochs);
  w.set("barrier_wait_s",
        static_cast<double>(coord.barrier_wait_ns() - wait0) / 1e9);
  w.set("esp_packets", service.total_esp_packets());
  w.set("proxy_retries", service.proxy().retries());
  w.set("proxy_errors", service.proxy().errors());
  for (std::size_t s = 0; s < fabric.world().shard_count(); ++s) {
    w.shard_events.push_back(fabric.world().shard(s).perf().events_fired);
  }
  const double t4 = tr.now();

  w.set("build_s", t1 - t0);
  w.set("warmup_s", t2 - t1);
  w.set("setup_s", t2 - t0);
  w.set("run_s", t3 - t2);
  w.set("check_s", t4 - t3);
  if (trace) {
    tr.add("check", root, t3, t4);
    w.spans[static_cast<std::size_t>(root)].end = t4;
  }
  std::vector<World> worlds;
  worlds.push_back(std::move(w));
  return worlds;
}

// --- path_bulk -----------------------------------------------------------

World path_world(std::size_t p, bool trace, Clock::time_point origin) {
  World w;
  w.name = kPathNames[p];
  Tracer tr(trace, origin, w);
  std::uint64_t failed = 0;

  const double t0 = tr.now();
  core::PathLab lab;
  const double t1 = tr.now();
  net::IpAddr dst;
  bool established = true;
  try {
    dst = lab.establish(kPaths[p]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "path_bulk %s: establish failed: %s\n",
                 kPathNames[p], e.what());
    established = false;
  }
  const double t2 = tr.now();

  sim::PerfCounters& perf = lab.network().perf();
  double mbps = 0.0, rtt_ms = 0.0;
  const std::uint64_t pkt0 = perf.packets_delivered;
  const std::uint64_t ev0 = perf.events_fired;
  if (established) {
    try {
      mbps = lab.iperf_mbps(dst, kIperfDuration);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "path_bulk %s: iperf failed: %s\n", kPathNames[p],
                   e.what());
    }
  }
  const double t3 = tr.now();
  const std::uint64_t iperf_packets = perf.packets_delivered - pkt0;
  const std::uint64_t iperf_events = perf.events_fired - ev0;
  const std::uint64_t ev1 = perf.events_fired;
  if (established) {
    try {
      rtt_ms = lab.ping_rtt_ms(dst, kEchoes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "path_bulk %s: ping failed: %s\n", kPathNames[p],
                   e.what());
    }
  }
  const double t4 = tr.now();
  const std::uint64_t ping_events = perf.events_fired - ev1;
  if (mbps <= 0.0) ++failed;
  if (rtt_ms <= 0.0) ++failed;

  w.hash = perf.determinism_hash;
  w.set("attempted", std::uint64_t{2});
  w.set("failed", failed);
  w.set("mbps", mbps);
  w.set("rtt_ms", rtt_ms);
  w.set("iperf_packets", iperf_packets);
  w.set("echoes", static_cast<std::uint64_t>(rtt_ms > 0.0 ? kEchoes : 0));
  w.set("run_events", iperf_events + ping_events);
  add_perf(w, perf);
  add_hip(w, {lab.hip1(), lab.hip2()});
  const double t5 = tr.now();

  w.set("build_s", t1 - t0);
  w.set("establish_s", t2 - t1);
  w.set("setup_s", t2 - t0);
  w.set("iperf_s", t3 - t2);
  w.set("ping_s", t4 - t3);
  w.set("run_s", t4 - t2);
  w.set("check_s", t5 - t4);
  if (trace) {
    // PathLab runs its loop inside iperf_mbps/ping_rtt_ms, so the run
    // phase is traced per measurement rather than per virtual slice.
    const int root = tr.add("world", -1, t0, t5);
    tr.add("build", root, t0, t1);
    tr.add("establish", root, t1, t2);
    const int run = tr.add("run", root, t2, t4, iperf_events + ping_events);
    tr.add("run.iperf", run, t2, t3, iperf_events);
    tr.add("run.ping", run, t3, t4, ping_events);
    tr.add("check", root, t4, t5);
  }
  return w;
}

/// The Fig. 3 rig has no stochastic input (lossless links, fixed
/// transfers); PathLab's own seed only picks host keys and TCP initial
/// sequence numbers, so every workload seed runs the checked-in rig.
std::vector<World> run_path_bulk(bool trace, Clock::time_point origin) {
  std::vector<World> worlds;
  for (std::size_t p = 0; p < std::size(kPaths); ++p) {
    worlds.push_back(path_world(p, trace, origin));
  }
  return worlds;
}

// --- host facts and output -------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t first = s.find_first_not_of(' ');
    const std::size_t last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_rep(const char* workload, std::uint64_t seed, bool trace,
               unsigned workers, double wall, double cpu, double rss_mb,
               const std::vector<World>& worlds) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"traced\": %s, \"threads\": %u, \"workers\": %u, "
              "\"wall_s\": %.9g, \"cpu_s\": %.9g, \"peak_rss_mb\": %.9g",
              workload, seed, trace ? "true" : "false", kSweepThreads,
              workers, wall, cpu, rss_mb);
  std::printf(", \"facts\": {\"nproc\": %u, \"cpu_model\": %s, "
              "\"build_type\": \"%s\", \"aes_hardware\": %s, "
              "\"sha256_backend\": \"%s\", \"sha256_mb_backend\": \"%s\", "
              "\"sha256_mb_lanes\": %zu}",
              std::thread::hardware_concurrency(),
              json_string(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE,
              crypto::Aes::hardware_accelerated() ? "true" : "false",
              crypto::sha256_backend::active_name(),
              crypto::shamb::active_name(), crypto::shamb::lane_width());
  std::printf(", \"worlds\": [");
  for (std::size_t i = 0; i < worlds.size(); ++i) {
    const World& w = worlds[i];
    std::printf("%s{\"name\": \"%s\", \"hash\": \"0x%016" PRIx64 "\"",
                i ? ", " : "", w.name.c_str(), w.hash);
    for (const auto& [key, value] : w.fields) {
      std::printf(", \"%s\": %.17g", key, value);
    }
    if (!w.shard_events.empty()) {
      std::printf(", \"shard_events\": [");
      for (std::size_t s = 0; s < w.shard_events.size(); ++s) {
        std::printf("%s%" PRIu64, s ? ", " : "", w.shard_events[s]);
      }
      std::printf("]");
    }
    if (trace) {
      std::printf(", \"spans\": [");
      for (std::size_t s = 0; s < w.spans.size(); ++s) {
        const Span& sp = w.spans[s];
        std::printf("%s[%d, %d, \"%s\", %.9f, %.9f, %" PRIu64 "]",
                    s ? ", " : "", sp.id, sp.parent, sp.name, sp.start,
                    sp.end, sp.events);
      }
      std::printf("]");
    }
    std::printf("}");
  }
  std::printf("]}\n");
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver <fig2_sweep|sharded_rubis|path_bulk> "
               "--seed N [--trace] [--workers W]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  std::uint64_t seed = 1;
  bool trace = false;
  unsigned workers = 2;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else {
      return usage();
    }
  }
  if (workers == 0) return usage();

  try {
    const double cpu0 = cpu_seconds();
    const Clock::time_point origin = Clock::now();
    std::vector<World> worlds;
    if (workload == "fig2_sweep") {
      worlds = run_fig2_sweep(seed, trace, origin);
    } else if (workload == "sharded_rubis") {
      worlds = run_sharded_rubis(seed, workers, trace, origin);
    } else if (workload == "path_bulk") {
      worlds = run_path_bulk(trace, origin);
    } else {
      return usage();
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - origin).count();
    const double cpu = cpu_seconds() - cpu0;
    print_rep(workload.c_str(), seed, trace, workers, wall, cpu,
              peak_rss_mb(), worlds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
