// Sharded-simulator scaling curve (BENCH_scale.json).
//
// Two sections:
//
//  1. scale   One fixed 8-rack ShardedFabric world (8 shards, 32 VMs)
//             driven with N cross-rack probe "clients" for N in
//             {1k, 10k, 100k, 1M}, run at 1/2/4/8 worker threads plus an
//             auto-planned run (workers=0: the coordinator clamps the
//             worker count to the work actually on hand, so tiny worlds
//             no longer pay 8 threads' barrier overhead for 1 thread's
//             work). Two speedup numbers come out:
//
//               speedup_wall_vs_1      measured wall-clock ratio; only
//                                      meaningful on a multi-core host
//                                      (host_cpus is recorded).
//               speedup_workspan_vs_1  work/span bound from per-shard
//                                      event counts — the speedup the
//                                      partition admits, independent of
//                                      the host.
//
//             Each run also reports the coordinator's schedule shape:
//             barrier epochs, events per epoch, per-shard strides and
//             wall time workers spend parked at the round barrier.
//
//  2. rubis   The sharded RUBiS + reverse-proxy service (HIP mode, ESP
//             on every proxy->web and web->db hop) at growing
//             closed-loop client farms, run at every worker count: real
//             protocol traffic through the parallel worlds, not probe
//             datagrams.
//
// The determinism hash, the event count and the schedule shape (epochs
// and strides) are asserted identical across every worker count at every
// point — a scaling curve from a world whose behaviour or slicing drifts
// with thread count would be meaningless. The binary exits non-zero on
// any violation, so check.sh --scale doubles as a large-world
// determinism gate.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cloud/shard_fabric.hpp"
#include "core/sharded_service.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"

namespace hipcloud::bench {
namespace {

// hipcheck:allow(wall-clock): bench measures real elapsed time; never feeds sim state
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRacks = 8;
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};

struct RunStats {
  unsigned workers = 0;        // as requested (0 = auto)
  unsigned workers_planned = 0;  // what the coordinator actually used
  double wall_seconds = 0.0;
  std::uint64_t hash = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t payload_bytes_copied = 0;  // cross-shard seam traffic
  std::uint64_t epochs = 0;
  std::uint64_t strides = 0;
  double events_per_epoch = 0.0;
  double barrier_wait_ms = 0.0;
  double workspan_speedup = 1.0;
  std::vector<std::uint64_t> shard_events;
};

/// Whether two runs of one world at different worker counts agree on
/// everything the worker count must not move: the hash, the events and
/// the coordinator's slicing. Prints the difference when they do not.
bool same_schedule(const char* what, const RunStats& s, const RunStats& base) {
  if (s.hash == base.hash && s.events_fired == base.events_fired &&
      s.epochs == base.epochs && s.strides == base.strides) {
    return true;
  }
  std::printf("  MISMATCH %s @ %u workers: hash 0x%016" PRIx64
              " vs 0x%016" PRIx64 ", events %" PRIu64 " vs %" PRIu64
              ", epochs %" PRIu64
              " vs %" PRIu64 ", strides %" PRIu64 " vs %" PRIu64 "\n",
              what, s.workers, s.hash, base.hash, s.events_fired,
              base.events_fired, s.epochs, base.epochs, s.strides,
              base.strides);
  return false;
}

void fill_coordinator_stats(cloud::ShardedFabric& fabric, RunStats& s) {
  const auto perf = fabric.merged_perf();
  s.hash = perf.determinism_hash;
  s.events_fired = perf.events_fired;
  s.payload_bytes_copied = perf.payload_bytes_copied;
  s.epochs = perf.shard_epochs;
  s.strides = perf.shard_strides;
  s.events_per_epoch = perf.events_per_epoch();
  s.barrier_wait_ms =
      static_cast<double>(fabric.world().coordinator().barrier_wait_ns()) /
      1e6;
}

/// Build the fixed fabric, pre-schedule `clients` cross-rack UDP probes
/// (round-robin over the 32 VMs, fixed per-VM period, each probe aimed at
/// the same-slot VM of a cycling peer rack) and run to completion on
/// `workers` threads. The schedule is a pure function of `clients`.
RunStats run_scale_point(std::size_t clients, unsigned workers) {
  cloud::FabricConfig cfg;
  cfg.racks = kRacks;
  cfg.hosts_per_rack = 2;
  cfg.vms_per_host = 2;
  cloud::ShardedFabric fabric(cfg);

  std::vector<net::IpAddr> vm_ip;
  std::vector<net::Node*> vm_node;
  std::vector<std::size_t> vm_rack;
  for (std::size_t r = 0; r < kRacks; ++r) {
    for (const auto& vm : fabric.rack_vms(r)) {
      vm_ip.emplace_back(vm->private_ip());
      vm_node.push_back(vm->node());
      vm_rack.push_back(r);
    }
  }
  for (net::Node* n : vm_node) {
    n->register_protocol(net::IpProto::kUdp, [](net::Packet&&) {});
  }

  const std::size_t vm_count = vm_node.size();
  const std::size_t per_rack = cfg.hosts_per_rack * cfg.vms_per_host;
  const sim::Duration period = sim::from_micros(100);
  sim::Time horizon = 0;
  for (std::size_t k = 0; k < clients; ++k) {
    const std::size_t i = k % vm_count;
    const std::size_t r = vm_rack[i];
    const std::size_t slot = i % per_rack;
    // Cycle the peer rack per round so cross-shard pairs all see traffic.
    const std::size_t pr = (r + 1 + (k / vm_count) % (kRacks - 1)) % kRacks;
    const std::size_t peer = pr * per_rack + slot;
    const sim::Time at =
        sim::from_micros(10 + 3 * static_cast<int>(i)) +
        static_cast<sim::Time>(k / vm_count) * period;
    if (at > horizon) horizon = at;
    fabric.world().shard(r).loop().schedule_at(
        at, [&fabric, &vm_ip, &vm_node, i, peer, r] {
          net::Packet pkt;
          pkt.src = vm_ip[i];
          pkt.dst = vm_ip[peer];
          pkt.proto = net::IpProto::kUdp;
          pkt.payload = fabric.world().shard(r).buffer_pool().make(200);
          pkt.stamp_l3_overhead();
          vm_node[i]->send(std::move(pkt));
        });
  }

  const unsigned planned = fabric.world().coordinator().plan_workers(workers);
  const auto t0 = Clock::now();
  fabric.run(horizon + sim::from_millis(10), workers);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  RunStats s;
  s.workers = workers;
  s.workers_planned = planned;
  s.wall_seconds = wall;
  fill_coordinator_stats(fabric, s);
  for (std::size_t sh = 0; sh < kRacks; ++sh) {
    s.shard_events.push_back(fabric.world().shard(sh).perf().events_fired);
  }
  // Work/span bound: total events over the busiest worker's events under
  // the coordinator's round-robin shard ownership (shard s -> worker s%w).
  const unsigned span_workers = planned == 0 ? 1 : planned;
  std::vector<std::uint64_t> per_worker(span_workers, 0);
  for (std::size_t sh = 0; sh < s.shard_events.size(); ++sh) {
    per_worker[sh % span_workers] += s.shard_events[sh];
  }
  std::uint64_t span = 0;
  for (const std::uint64_t w : per_worker) span = std::max(span, w);
  s.workspan_speedup =
      span == 0 ? 1.0
                : static_cast<double>(s.events_fired) /
                      static_cast<double>(span);
  return s;
}

// --- sharded RUBiS section ---------------------------------------------------

struct RubisStats {
  RunStats run;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t esp_packets = 0;
};

/// Real traffic: the RUBiS + reverse-proxy service in HIP mode across a
/// kRacks-rack fabric, `farm_users` closed-loop users per rack farm.
RubisStats run_rubis_point(int farm_users, unsigned workers,
                           sim::Duration duration) {
  cloud::FabricConfig fcfg;
  fcfg.racks = kRacks;
  fcfg.hosts_per_rack = 1;
  fcfg.vms_per_host = 1;
  cloud::ShardedFabric fabric(fcfg);

  core::ShardedServiceConfig scfg;
  scfg.mode = core::SecurityMode::kHip;
  scfg.dataset.items = 500;
  scfg.dataset.users = 100;
  scfg.dataset.bids = 1000;
  scfg.clients_per_rack = farm_users;
  scfg.duration = duration;
  core::ShardedService service(fabric, scfg);
  service.prepare();
  fabric.run(sim::kSecond, workers);  // BEX warm-up window
  service.start_clients();

  const auto t0 = Clock::now();
  fabric.run(sim::kSecond + duration + 3 * sim::kSecond, workers);
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  RubisStats rs;
  rs.run.workers = workers;
  rs.run.workers_planned = workers;
  rs.run.wall_seconds = wall;
  fill_coordinator_stats(fabric, rs.run);
  const auto report = service.report();
  rs.completed = report.completed;
  rs.errors = report.errors;
  rs.esp_packets = service.total_esp_packets();
  return rs;
}

// --- reporting ---------------------------------------------------------------

struct ScalePoint {
  std::size_t clients = 0;
  std::vector<RunStats> runs;
  bool hash_identical = true;
};

struct RubisPoint {
  int total_clients = 0;
  std::vector<RubisStats> runs;
  bool hash_identical = true;
};

void write_run_json(std::FILE* f, const RunStats& r, double wall1,
                    const char* trailer) {
  std::fprintf(f,
               "        {\"workers\": %u, \"workers_planned\": %u, "
               "\"wall_seconds\": %.4f, \"speedup_wall_vs_1\": %.3f, "
               "\"speedup_workspan_vs_1\": %.3f, \"epochs\": %" PRIu64
               ", \"events_per_epoch\": %.1f, \"shard_strides\": %" PRIu64
               ", \"barrier_wait_ms\": %.2f}%s\n",
               r.workers, r.workers_planned, r.wall_seconds,
               r.wall_seconds > 0 ? wall1 / r.wall_seconds : 0.0,
               r.workspan_speedup, r.epochs, r.events_per_epoch, r.strides,
               r.barrier_wait_ms, trailer);
}

void write_scale_json(const std::vector<ScalePoint>& points,
                      const std::vector<RubisPoint>& rubis,
                      const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig_scale: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"title\": \"Sharded world scaling: workers over a "
                  "fixed %zu-shard rack partition\",\n",
               kRacks);
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"shards\": %zu,\n", kRacks);
  std::fprintf(f,
               "  \"note\": \"speedup_wall_vs_1 is measured wall clock and "
               "is bounded by host_cpus; speedup_workspan_vs_1 is the "
               "event-balance bound the partition admits (total events / "
               "busiest worker's events); workers=0 rows are the "
               "auto-planned clamp (workers_planned shows the choice)\",\n");
  std::fprintf(f, "  \"scale\": [\n");
  for (std::size_t p = 0; p < points.size(); ++p) {
    const ScalePoint& pt = points[p];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"clients\": %zu,\n", pt.clients);
    std::fprintf(f, "      \"events_fired\": %" PRIu64 ",\n",
                 pt.runs[0].events_fired);
    std::fprintf(f, "      \"cross_shard_bytes\": %" PRIu64 ",\n",
                 pt.runs[0].payload_bytes_copied);
    std::fprintf(f, "      \"determinism_hash\": \"0x%016" PRIx64 "\",\n",
                 pt.runs[0].hash);
    std::fprintf(f, "      \"hash_identical_across_workers\": %s,\n",
                 pt.hash_identical ? "true" : "false");
    std::fprintf(f, "      \"runs\": [\n");
    for (std::size_t i = 0; i < pt.runs.size(); ++i) {
      write_run_json(f, pt.runs[i], pt.runs[0].wall_seconds,
                     i + 1 < pt.runs.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", p + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"rubis\": [\n");
  for (std::size_t p = 0; p < rubis.size(); ++p) {
    const RubisPoint& pt = rubis[p];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"total_clients\": %d,\n", pt.total_clients);
    std::fprintf(f, "      \"completed_requests\": %" PRIu64 ",\n",
                 pt.runs[0].completed);
    std::fprintf(f, "      \"errors\": %" PRIu64 ",\n", pt.runs[0].errors);
    std::fprintf(f, "      \"esp_packets\": %" PRIu64 ",\n",
                 pt.runs[0].esp_packets);
    std::fprintf(f, "      \"determinism_hash\": \"0x%016" PRIx64 "\",\n",
                 pt.runs[0].run.hash);
    std::fprintf(f, "      \"hash_identical_across_workers\": %s,\n",
                 pt.hash_identical ? "true" : "false");
    std::fprintf(f, "      \"runs\": [\n");
    for (std::size_t i = 0; i < pt.runs.size(); ++i) {
      write_run_json(f, pt.runs[i].run, pt.runs[0].run.wall_seconds,
                     i + 1 < pt.runs.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", p + 1 < rubis.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace hipcloud::bench

int main(int argc, char** argv) {
  using namespace hipcloud::bench;
  namespace sim = hipcloud::sim;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<std::size_t> client_counts =
      quick ? std::vector<std::size_t>{1'000, 10'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};

  std::printf("fig_scale: %zu-shard fabric, workers {1,2,4,8,auto}, "
              "host_cpus=%u\n",
              kRacks, std::thread::hardware_concurrency());

  int failures = 0;

  std::vector<ScalePoint> points;
  for (const std::size_t clients : client_counts) {
    ScalePoint pt;
    pt.clients = clients;
    // Explicit worker counts, then the auto-planned run (workers=0).
    std::vector<unsigned> workers_list(std::begin(kWorkerCounts),
                                       std::end(kWorkerCounts));
    workers_list.push_back(0);
    for (const unsigned workers : workers_list) {
      RunStats s = run_scale_point(clients, workers);
      const std::string what = std::to_string(clients) + " clients";
      if (!pt.runs.empty() && !same_schedule(what.c_str(), s, pt.runs[0])) {
        pt.hash_identical = false;
        ++failures;
      }
      std::printf("  %7zu clients @ %u workers (planned %u): %.3fs wall, "
                  "%" PRIu64 " events, %" PRIu64
                  " epochs (%.0f ev/epoch), workspan x%.2f\n",
                  clients, s.workers, s.workers_planned, s.wall_seconds,
                  s.events_fired, s.epochs, s.events_per_epoch,
                  s.workspan_speedup);
      pt.runs.push_back(std::move(s));
    }
    points.push_back(std::move(pt));
  }

  // Sharded RUBiS: real HIP/ESP traffic through the parallel worlds.
  const std::vector<int> farm_sizes =
      quick ? std::vector<int>{2} : std::vector<int>{2, 8, 32};
  const sim::Duration rubis_dur = (quick ? 2 : 4) * sim::kSecond;
  std::printf("\nsharded rubis (HIP): %zu racks, farm sizes per rack\n",
              kRacks);
  std::vector<RubisPoint> rubis;
  for (const int farm : farm_sizes) {
    RubisPoint pt;
    pt.total_clients = farm * static_cast<int>(kRacks);
    for (const unsigned workers : kWorkerCounts) {
      RubisStats rs = run_rubis_point(farm, workers, rubis_dur);
      const std::string what = "rubis " + std::to_string(pt.total_clients);
      if (!pt.runs.empty() &&
          (!same_schedule(what.c_str(), rs.run, pt.runs[0].run) ||
           rs.completed != pt.runs[0].completed)) {
        pt.hash_identical = false;
        ++failures;
      }
      std::printf("  %4d clients @ %u workers: %.3fs wall, %" PRIu64
                  " requests, %" PRIu64 " errors, %" PRIu64
                  " esp pkts, hash 0x%016" PRIx64 "\n",
                  pt.total_clients, rs.run.workers, rs.run.wall_seconds,
                  rs.completed, rs.errors, rs.esp_packets, rs.run.hash);
      pt.runs.push_back(std::move(rs));
    }
    if (pt.runs[0].errors != 0) {
      ++failures;
      std::printf("  FAIL: rubis point had %" PRIu64 " errors\n",
                  pt.runs[0].errors);
    }
    rubis.push_back(std::move(pt));
  }

  // The quick CTest smoke run keeps the JSON artifact from the full run.
  if (!quick) write_scale_json(points, rubis, "BENCH_scale.json");

  if (failures != 0) {
    std::printf("\nFAIL: %d violation%s\n", failures,
                failures == 1 ? "" : "s");
    return 1;
  }
  std::printf("\nPASS: hash, epochs and strides identical across workers "
              "at every point, rubis error-free\n");
  return 0;
}
