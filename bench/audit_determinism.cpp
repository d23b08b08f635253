// Determinism auditor (hipcheck part 3).
//
// Every EventLoop folds each event firing `(when, seq)` into a rolling
// FNV-1a hash (sim::PerfCounters::determinism_hash), so one 64-bit word
// captures the complete firing order of a world. The arena slot an event
// occupies is not folded: slot reuse is engine bookkeeping. This
// harness replays the same sweep of (clients, mode) worlds under
// different host-side execution conditions and diffs the per-world hash
// streams:
//
//   run A   serial (1 thread)            — the reference order
//   run B   2 worker threads
//   run C   hardware_concurrency threads
//   run D   N threads + perturbed scheduling slack: each job sleeps a
//           deterministic, index-derived amount before building its
//           world, shuffling which worker picks up which job and how
//           the OS interleaves them.
//
// If any world's hash differs between runs, host parallelism is leaking
// into simulated behaviour — exactly the bug class the paper's
// reproducibility claims cannot tolerate — and the auditor prints the
// offending grid point and fails. Per-world wall-clock never enters the
// hash, so the slack injection cannot legitimately change it.
//
// A second section audits the sharded simulator the same way but along
// the other parallelism axis: one multi-rack ShardedFabric world is run
// at 1/2/4/8 worker threads over its fixed shard partition, and the
// shard-id-order merged world hash must stay byte-identical. This is the
// cross-shard seam (inbox drain order, barrier epochs, lookahead
// boundary deliveries) under real traffic, not the synthetic loops the
// unit tests use.
//
// `--quick` shrinks the grid and duration for the CTest registration
// (label `audit`, runs inside tier-1); the full grid is the manual /
// check.sh configuration.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cloud/shard_fabric.hpp"
#include "core/secure_service.hpp"
#include "core/sharded_service.hpp"
#include "core/testbed.hpp"
#include "sim/sweep.hpp"

namespace {

using hipcloud::core::mode_name;
using hipcloud::sim::sweep;

struct WorldPoint {
  int clients;
  hipcloud::core::SecurityMode mode;
};

struct WorldResult {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  double throughput = 0.0;
};

struct RunSpec {
  const char* name;
  unsigned threads;
  bool perturb;
};

std::vector<WorldResult> run_grid(const std::vector<WorldPoint>& grid,
                                  hipcloud::sim::Duration duration,
                                  unsigned threads, bool perturb) {
  return sweep<WorldResult>(
      grid.size(),
      [&](std::size_t i) {
        if (perturb) {
          // Deterministic, index-derived slack (0..1.2 ms in 100 us
          // steps): shuffles job->worker assignment and OS interleaving
          // without touching anything inside the worlds.
          const auto us = ((i * 7919) % 13) * 100;
          std::this_thread::sleep_for(std::chrono::microseconds(us));
        }
        hipcloud::core::TestbedConfig cfg;
        cfg.deployment.mode = grid[i].mode;
        hipcloud::core::Testbed bed(cfg);
        const auto report =
            bed.run_closed_loop(grid[i].clients, duration);
        const auto& perf = bed.network().perf();
        return WorldResult{perf.determinism_hash, perf.events_fired,
                           report.throughput_rps()};
      },
      threads);
}

struct ShardRunResult {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
};

/// Build a fixed multi-rack sharded fabric, drive periodic cross-rack UDP
/// probe trains from every VM, run to `duration` on `workers` threads and
/// return the merged world hash. The world build is a pure function of
/// (racks, duration); only `workers` varies between runs.
ShardRunResult run_sharded_world(std::size_t racks,
                                 hipcloud::sim::Duration duration,
                                 unsigned workers) {
  namespace cloud = hipcloud::cloud;
  namespace net = hipcloud::net;
  namespace sim = hipcloud::sim;

  cloud::FabricConfig cfg;
  cfg.racks = racks;
  cfg.hosts_per_rack = 2;
  cfg.vms_per_host = 2;
  cloud::ShardedFabric fabric(cfg);

  std::vector<net::IpAddr> vm_ip;
  std::vector<net::Node*> vm_node;
  std::vector<std::size_t> vm_rack;
  for (std::size_t r = 0; r < racks; ++r) {
    for (const auto& vm : fabric.rack_vms(r)) {
      vm_ip.emplace_back(vm->private_ip());
      vm_node.push_back(vm->node());
      vm_rack.push_back(r);
    }
  }
  // Receivers echo nothing (one-way probes keep the event count an exact
  // function of the schedule), but must consume the datagrams so they
  // count as received rather than unhandled.
  for (net::Node* n : vm_node) {
    n->register_protocol(net::IpProto::kUdp, [](net::Packet&&) {});
  }
  // Every VM probes the "same slot" VM in every other rack on a fixed
  // period, phase-staggered by sender index so the inboxes carry a
  // steady interleaving of cross-shard posts.
  const sim::Duration period = sim::from_micros(500);
  const std::size_t per_rack = cfg.hosts_per_rack * cfg.vms_per_host;
  for (std::size_t i = 0; i < vm_node.size(); ++i) {
    const std::size_t r = vm_rack[i];
    const std::size_t slot = i % per_rack;
    for (sim::Time t = sim::from_micros(10 + 13 * static_cast<int>(i));
         t < duration; t += period) {
      for (std::size_t pr = 0; pr < racks; ++pr) {
        if (pr == r) continue;
        const std::size_t peer = pr * per_rack + slot;
        fabric.world().shard(r).loop().schedule_at(t, [&fabric, &vm_ip,
                                                       &vm_node, i, peer, r] {
          net::Packet pkt;
          pkt.src = vm_ip[i];
          pkt.dst = vm_ip[peer];
          pkt.proto = net::IpProto::kUdp;
          pkt.payload = fabric.world().shard(r).buffer_pool().make(200);
          pkt.stamp_l3_overhead();
          vm_node[i]->send(std::move(pkt));
        });
      }
    }
  }
  fabric.run(duration, workers);
  const auto perf = fabric.merged_perf();
  return ShardRunResult{perf.determinism_hash, perf.events_fired};
}

/// The same worker-invariance check over *real* traffic: a sharded RUBiS
/// + reverse-proxy deployment in HIP mode, so closed-loop HTTP requests,
/// BEET-ESP tunnels and the batched-crypto datapath all cross the shard
/// seams. Every request, retransmit and ESP packet must land identically
/// at any worker count.
ShardRunResult run_sharded_rubis(bool quick, unsigned workers) {
  namespace cloud = hipcloud::cloud;
  namespace core = hipcloud::core;
  namespace sim = hipcloud::sim;

  cloud::FabricConfig fcfg;
  fcfg.racks = quick ? 4u : 6u;
  fcfg.hosts_per_rack = 1;
  fcfg.vms_per_host = 1;
  cloud::ShardedFabric fabric(fcfg);

  core::ShardedServiceConfig scfg;
  scfg.mode = core::SecurityMode::kHip;
  scfg.dataset.items = 200;
  scfg.dataset.users = 50;
  scfg.dataset.bids = 400;
  scfg.clients_per_rack = 2;
  scfg.duration = (quick ? 2 : 4) * sim::kSecond;
  core::ShardedService service(fabric, scfg);
  service.prepare();
  fabric.run(sim::kSecond, workers);  // BEX warm-up
  service.start_clients();
  fabric.run((quick ? 5 : 8) * sim::kSecond, workers);
  const auto perf = fabric.merged_perf();
  return ShardRunResult{perf.determinism_hash, perf.events_fired};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<int> client_counts =
      quick ? std::vector<int>{2, 4} : std::vector<int>{2, 6, 10, 20};
  // The closed-loop client's default warmup is 2 s; run past it so the
  // reported throughput covers a real measurement window.
  const hipcloud::sim::Duration duration =
      (quick ? 4 : 10) * hipcloud::sim::kSecond;
  constexpr hipcloud::core::SecurityMode kModes[] = {
      hipcloud::core::SecurityMode::kBasic,
      hipcloud::core::SecurityMode::kHip,
      hipcloud::core::SecurityMode::kSsl};

  std::vector<WorldPoint> grid;
  for (int c : client_counts) {
    for (auto m : kModes) grid.push_back({c, m});
  }

  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) hw = 2;
  const RunSpec runs[] = {
      {"serial", 1, false},
      {"2-thread", 2, false},
      {"N-thread", hw, false},
      {"N-thread+slack", hw, true},
  };

  std::printf(
      "Determinism audit: %zu worlds x %zu runs "
      "(serial / 2 / %u / %u+slack threads), %s grid\n",
      grid.size(), std::size(runs), hw, hw, quick ? "quick" : "full");

  std::vector<std::vector<WorldResult>> results;
  results.reserve(std::size(runs));
  for (const RunSpec& r : runs) {
    results.push_back(run_grid(grid, duration, r.threads, r.perturb));
  }

  int mismatches = 0;
  const auto& ref = results[0];
  for (std::size_t w = 0; w < grid.size(); ++w) {
    bool ok = true;
    for (std::size_t r = 1; r < results.size(); ++r) {
      if (results[r][w].hash != ref[w].hash ||
          results[r][w].events != ref[w].events) {
        ok = false;
        ++mismatches;
        std::printf(
            "  MISMATCH %3d clients/%-5s  %s: hash 0x%016llx (%llu events) "
            "vs serial 0x%016llx (%llu events)\n",
            grid[w].clients, mode_name(grid[w].mode), runs[r].name,
            static_cast<unsigned long long>(results[r][w].hash),
            static_cast<unsigned long long>(results[r][w].events),
            static_cast<unsigned long long>(ref[w].hash),
            static_cast<unsigned long long>(ref[w].events));
      }
    }
    if (ok) {
      std::printf("  ok  %3d clients/%-5s  0x%016llx  (%llu events, %.1f rps)\n",
                  grid[w].clients, mode_name(grid[w].mode),
                  static_cast<unsigned long long>(ref[w].hash),
                  static_cast<unsigned long long>(ref[w].events),
                  ref[w].throughput);
    }
  }

  // --- sharded-simulator section: same world, varying worker threads ---
  const std::size_t racks = quick ? 4u : 8u;
  const hipcloud::sim::Duration shard_duration =
      (quick ? 1 : 4) * hipcloud::sim::kSecond;
  std::printf(
      "\nSharded audit: %zu-rack fabric at 1/2/4/8 workers, %s duration\n",
      racks, quick ? "quick" : "full");
  const ShardRunResult shard_ref = run_sharded_world(racks, shard_duration, 1);
  std::printf("  serial    0x%016llx  (%llu events)\n",
              static_cast<unsigned long long>(shard_ref.hash),
              static_cast<unsigned long long>(shard_ref.events));
  for (const unsigned workers : {2u, 4u, 8u}) {
    const ShardRunResult got = run_sharded_world(racks, shard_duration, workers);
    if (got.hash != shard_ref.hash || got.events != shard_ref.events) {
      ++mismatches;
      std::printf(
          "  MISMATCH %u workers: hash 0x%016llx (%llu events) vs serial "
          "0x%016llx (%llu events)\n",
          workers, static_cast<unsigned long long>(got.hash),
          static_cast<unsigned long long>(got.events),
          static_cast<unsigned long long>(shard_ref.hash),
          static_cast<unsigned long long>(shard_ref.events));
    } else {
      std::printf("  ok %u workers  0x%016llx\n", workers,
                  static_cast<unsigned long long>(got.hash));
    }
  }

  // --- sharded RUBiS section: real HIP/ESP traffic across the seams ---
  std::printf("\nSharded RUBiS audit (HIP mode) at 1/2/4/8 workers\n");
  const ShardRunResult rubis_ref = run_sharded_rubis(quick, 1);
  std::printf("  serial    0x%016llx  (%llu events)\n",
              static_cast<unsigned long long>(rubis_ref.hash),
              static_cast<unsigned long long>(rubis_ref.events));
  for (const unsigned workers : {2u, 4u, 8u}) {
    const ShardRunResult got = run_sharded_rubis(quick, workers);
    if (got.hash != rubis_ref.hash || got.events != rubis_ref.events) {
      ++mismatches;
      std::printf(
          "  MISMATCH %u workers: hash 0x%016llx (%llu events) vs serial "
          "0x%016llx (%llu events)\n",
          workers, static_cast<unsigned long long>(got.hash),
          static_cast<unsigned long long>(got.events),
          static_cast<unsigned long long>(rubis_ref.hash),
          static_cast<unsigned long long>(rubis_ref.events));
    } else {
      std::printf("  ok %u workers  0x%016llx\n", workers,
                  static_cast<unsigned long long>(got.hash));
    }
  }

  if (mismatches != 0) {
    std::printf(
        "\nFAIL: %d hash mismatch%s — host scheduling is leaking into "
        "simulated behaviour\n",
        mismatches, mismatches == 1 ? "" : "es");
    return 1;
  }
  std::printf(
      "\nPASS: all %zu worlds hash bit-identically across thread counts "
      "and scheduling slack, and the sharded world is worker-invariant\n",
      grid.size());
  return 0;
}
