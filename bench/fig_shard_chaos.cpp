// Sharded chaos drill (BENCH_shard_chaos.json).
//
// The RUBiS + reverse-proxy service runs in HIP mode across a 6-rack
// ShardedFabric (proxy rack, four web racks, db rack — every inter-tier
// hop crosses a shard seam under BEET-ESP) while each web VM's guest
// link is taken down for 1.2 s, one after another. The proxy's health
// checks plus dispatch retries must mask every outage: the run passes
// only if the client farms see ZERO errors while every web backend gets
// ejected and revived at least once.
//
// The whole drill is repeated at 1/2/4 worker threads and the world
// hash, request count and ESP packet count are asserted byte-identical —
// fault injection rides the owning shard's event loop, so chaos is as
// deterministic as the rest of the schedule. Exit is non-zero on any
// client-visible error, missed ejection/revival, or cross-worker
// divergence; check.sh --scale runs the full drill as a gate.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "cloud/shard_fabric.hpp"
#include "core/sharded_service.hpp"
#include "net/link.hpp"
#include "sim/time.hpp"

namespace hipcloud::bench {
namespace {

constexpr std::size_t kRacks = 6;  // proxy, 4 web racks, db
constexpr unsigned kWorkerCounts[] = {1, 2, 4};
constexpr sim::Duration kOutage = 1200 * sim::kMillisecond;
constexpr sim::Duration kFlapGap = 2500 * sim::kMillisecond;

struct ChaosRun {
  unsigned workers = 0;
  std::uint64_t hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t esp_packets = 0;
  std::uint64_t ejections = 0;
  std::uint64_t revivals = 0;
  std::uint64_t retries = 0;
  bool all_flapped = true;  // every web backend ejected and revived
};

ChaosRun run_chaos(bool quick, unsigned workers) {
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
  // Only idempotent requests are redispatched after an upstream failure
  // (HAProxy `redispatch` semantics), so the zero-error promise needs a
  // GET-only mix; a POST caught mid-outage is a client-visible 502 by
  // design.
  scfg.dataset.read_only = true;
  scfg.clients_per_rack = 4;
  // Long enough for one staggered outage per web backend plus slack.
  scfg.duration =
      static_cast<sim::Duration>(kRacks - 2) * kFlapGap +
      (quick ? 2 : 5) * sim::kSecond;
  // An aggressive health view so a dead backend is cut fast and the
  // retry path absorbs the requests caught mid-outage.
  scfg.proxy_health.max_failures = 2;
  scfg.proxy_health.upstream_timeout = 500 * sim::kMillisecond;
  scfg.proxy_health.retry_limit = 2;
  scfg.proxy_health.reprobe_interval = sim::kSecond;
  core::ShardedService service(fabric, scfg);

  service.prepare();
  fabric.run(sim::kSecond, workers);  // BEX warm-up window
  service.start_clients();

  // Stagger one guest-link outage per web VM. Each flap is an ordinary
  // event on the shard that owns the VM's rack, so it lands at the same
  // virtual instant regardless of worker count.
  const sim::Time t0 = sim::kSecond;
  const auto& webs = service.tiers().web_vms();
  for (std::size_t i = 0; i < webs.size(); ++i) {
    net::Link* link = webs[i]->guest_link();
    auto& loop = fabric.world().shard(service.web_rack(i)).loop();
    const sim::Time down_at =
        t0 + sim::kSecond + static_cast<sim::Duration>(i) * kFlapGap;
    loop.schedule_at(down_at, [link] { link->set_down(true); });
    loop.schedule_at(down_at + kOutage, [link] { link->set_down(false); });
  }

  fabric.run(t0 + scfg.duration + 3 * sim::kSecond, workers);

  ChaosRun out;
  out.workers = workers;
  out.hash = fabric.world_hash();
  const auto report = service.report();
  out.completed = report.completed;
  out.errors = report.errors;
  out.esp_packets = service.total_esp_packets();
  const auto& proxy = service.proxy();
  out.ejections = proxy.ejections();
  out.revivals = proxy.revivals();
  out.retries = proxy.retries();
  for (std::size_t i = 0; i < webs.size(); ++i) {
    if (!proxy.healthy(i)) out.all_flapped = false;  // never revived
  }
  if (out.ejections < webs.size() || out.revivals < webs.size()) {
    out.all_flapped = false;
  }
  return out;
}

void write_json(const std::vector<ChaosRun>& runs, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig_shard_chaos: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"title\": \"Sharded chaos drill: staggered web guest-link "
               "outages under the HIP RUBiS service, %zu racks\",\n",
               kRacks);
  std::fprintf(f,
               "  \"note\": \"proxy health checks + retries must mask every "
               "outage (zero client-visible errors); identical hash across "
               "worker counts\",\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ChaosRun& r = runs[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"completed_requests\": %" PRIu64
                 ", \"errors\": %" PRIu64 ", \"esp_packets\": %" PRIu64
                 ", \"ejections\": %" PRIu64 ", \"revivals\": %" PRIu64
                 ", \"proxy_retries\": %" PRIu64
                 ", \"determinism_hash\": \"0x%016" PRIx64 "\"}%s\n",
                 r.workers, r.completed, r.errors, r.esp_packets, r.ejections,
                 r.revivals, r.retries, r.hash,
                 i + 1 < runs.size() ? "," : "");
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
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::uint64_t min_completed = quick ? 150 : 400;
  int failures = 0;
  std::vector<ChaosRun> runs;
  for (const unsigned workers : kWorkerCounts) {
    ChaosRun r = run_chaos(quick, workers);
    std::printf("chaos @ %u workers: %" PRIu64 " requests, %" PRIu64
                " errors, %" PRIu64 " esp pkts, %" PRIu64 " ejections / %" PRIu64
                " revivals, %" PRIu64 " retries, hash 0x%016" PRIx64 "\n",
                r.workers, r.completed, r.errors, r.esp_packets, r.ejections,
                r.revivals, r.retries, r.hash);
    if (r.errors != 0) {
      ++failures;
      std::printf("  FAIL: %" PRIu64 " client-visible errors\n", r.errors);
    }
    if (r.completed < min_completed) {
      ++failures;
      std::printf("  FAIL: only %" PRIu64 " requests (need >= %" PRIu64
                  ")\n",
                  r.completed, min_completed);
    }
    if (!r.all_flapped) {
      ++failures;
      std::printf("  FAIL: not every web backend was ejected and revived\n");
    }
    if (!runs.empty() &&
        (r.hash != runs[0].hash || r.completed != runs[0].completed ||
         r.esp_packets != runs[0].esp_packets)) {
      ++failures;
      std::printf("  FAIL: diverged from the 1-worker run\n");
    }
    runs.push_back(r);
  }

  if (!quick) write_json(runs, "BENCH_shard_chaos.json");

  if (failures != 0) {
    std::printf("FAIL: %d violation%s\n", failures, failures == 1 ? "" : "s");
    return 1;
  }
  std::printf("PASS: every outage masked, zero errors, worker-invariant\n");
  return 0;
}
