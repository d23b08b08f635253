// Simulator-core micro-benchmark: event-loop schedule/cancel/fire
// throughput and the packet datapath (raw TCP echo and the Fig. 2 RUBiS
// path). Emits BENCH_sim.json so the perf trajectory of the simulator
// substrate itself — not just the crypto — is tracked run over run.
//
// The binary also counts real heap allocations (global operator new
// override, bench binary only) so "allocations per delivered packet" is a
// measured number, not an estimate, and tracks live heap bytes (each
// block's usable size, added on allocation and subtracted on release).
//
// `micro_sim --quick` is also a gate: it exits nonzero when any RUBiS arm
// (basic, HIP, SSL) costs more than kMaxAllocsPerRequest heap allocations
// per completed request, or holds more than kMaxLiveHeapBytes once its
// run ends.

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/rubis.hpp"
#include "core/testbed.hpp"
#include "net/tcp.hpp"
#include "sim/event_loop.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps a counter.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};

std::uint64_t allocs_now() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::int64_t live_bytes_now() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
// The replaced operator new above allocates with std::malloc, so free()
// is the matching deallocator; GCC can't see through the replacement
// and reports a mismatched pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
#pragma GCC diagnostic pop

namespace hipcloud::bench {
namespace {

// hipcheck:allow(wall-clock): micro-bench measures real elapsed time; never feeds sim state
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Event-loop workloads on sim::EventLoop: waves of scheduled events
// (timer churn), an RTO-style schedule-then-cancel storm, and the same
// re-arm storm through reschedule(), which is how TCP re-arms its RTO.

struct LoopScore {
  double schedule_fire_mops;  // schedule+fire pairs per second, millions
  double cancel_mops;         // schedule+cancel pairs per second, millions
  double reschedule_mops;     // in-place re-arms per second, millions
};

// Captured state sized like the real hot callbacks: the link-delivery
// lambda captures a Packet by value (104 bytes), timer lambdas capture a
// shared_ptr plus sequencing state. An honest schedule/fire benchmark must
// carry a realistic capture, not an 8-byte counter reference.
struct CallbackState {
  std::uint64_t* fired;
  std::uint64_t pad[7];  // 64 bytes total, well under a Packet capture
};

LoopScore run_loop_bench(std::size_t events, std::size_t churn) {
  LoopScore score{};
  {
    sim::EventLoop loop;
    std::uint64_t fired = 0;
    const CallbackState st{&fired, {}};
    const auto t0 = Clock::now();
    constexpr std::size_t kWave = 1024;
    std::size_t scheduled = 0;
    while (scheduled < events) {
      const std::size_t n = std::min(kWave, events - scheduled);
      for (std::size_t i = 0; i < n; ++i) {
        loop.schedule(static_cast<std::int64_t>(i % 7),
                      [st] { ++*st.fired; });
      }
      scheduled += n;
      loop.run();
    }
    score.schedule_fire_mops =
        static_cast<double>(fired) / seconds_since(t0) / 1e6;
  }
  {
    sim::EventLoop loop;
    std::uint64_t fired = 0;
    const CallbackState st{&fired, {}};
    const auto t0 = Clock::now();
    constexpr std::size_t kWave = 1024;
    std::size_t done = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(kWave);
    while (done < churn) {
      const std::size_t n = std::min(kWave, churn - done);
      handles.clear();
      for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(loop.schedule(100, [st] { ++*st.fired; }));
      }
      // Cancel every scheduled timer, as a TCP ack storm re-arming the
      // RTO would.
      for (auto& h : handles) loop.cancel(h);
      loop.run();
      done += n;
    }
    score.cancel_mops = static_cast<double>(done) / seconds_since(t0) / 1e6;
  }
  {
    sim::EventLoop loop;
    std::uint64_t fired = 0;
    const CallbackState st{&fired, {}};
    const auto t0 = Clock::now();
    // kTimers armed RTOs; every wave acks each connection once, pushing
    // its timer out again (jittered, so entries move both ways), then
    // the clock advances one tick.
    constexpr std::size_t kTimers = 1024;
    std::vector<sim::EventHandle> timers;
    timers.reserve(kTimers);
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers.push_back(loop.schedule(100, [st] { ++*st.fired; }));
    }
    std::size_t done = 0;
    while (done < churn) {
      const std::size_t n = std::min(kTimers, churn - done);
      for (std::size_t i = 0; i < n; ++i) {
        const auto rto = static_cast<std::int64_t>(100 + (done + i) % 7);
        loop.reschedule(timers[i], rto);
      }
      loop.run(loop.now() + 1);
      done += n;
    }
    loop.run();
    score.reschedule_mops =
        static_cast<double>(done) / seconds_since(t0) / 1e6;
  }
  return score;
}

// ---------------------------------------------------------------------------
// Packet round-trip: two hosts on a fast LAN link, raw TCP, closed-loop
// 1 KiB request -> 1 KiB response. Allocations and wall time are measured
// over the steady-state run only (world setup excluded).

struct EchoScore {
  std::uint64_t round_trips;
  std::uint64_t packets;     // link-delivered packets, both directions
  double allocs_per_packet;  // heap allocations per delivered packet
  double sim_packets_per_wall_second;
  sim::PerfCounters perf;
};

EchoScore run_tcp_echo(std::uint64_t round_trips) {
  net::Network net(42);
  net::Node* a = net.add_node("a");
  net::Node* b = net.add_node("b");
  net::LinkConfig lan;
  lan.latency = sim::from_micros(100);
  const auto att = net.connect(a, b, lan);
  a->add_address(att.iface_a, net::Ipv4Addr(10, 0, 0, 1));
  b->add_address(att.iface_b, net::Ipv4Addr(10, 0, 0, 2));
  a->set_default_route(att.iface_a);
  b->set_default_route(att.iface_b);

  net::TcpStack tcp_a(a);
  net::TcpStack tcp_b(b);

  const crypto::Bytes blob(1024, 0x42);
  tcp_b.listen(7, [&](std::shared_ptr<net::TcpConnection> conn) {
    auto c = conn.get();
    conn->on_data([c, &blob](crypto::Buffer data) {
      // Echo a fixed 1 KiB response once a full 1 KiB request arrived.
      static thread_local std::uint64_t got = 0;
      got += data.size();
      while (got >= 1024) {
        got -= 1024;
        c->send(blob);
      }
    });
  });

  std::uint64_t remaining = round_trips;
  std::uint64_t received = 0;
  auto conn = tcp_a.connect(net::Endpoint{net::Ipv4Addr(10, 0, 0, 2), 7});
  auto c = conn.get();
  conn->on_connect([c, &blob] { c->send(blob); });
  conn->on_data([&, c](crypto::Buffer data) {
    received += data.size();
    while (received >= 1024) {
      received -= 1024;
      if (--remaining == 0) {
        c->close();
        return;
      }
      c->send(blob);
    }
  });

  const auto t0 = Clock::now();
  const std::uint64_t allocs0 = allocs_now();
  net.loop().run();
  const std::uint64_t allocs1 = allocs_now();
  const double wall = seconds_since(t0);

  EchoScore score{};
  score.round_trips = round_trips;
  score.packets = att.link->delivered_packets();
  score.allocs_per_packet = score.packets
                                ? static_cast<double>(allocs1 - allocs0) /
                                      static_cast<double>(score.packets)
                                : 0.0;
  score.sim_packets_per_wall_second =
      static_cast<double>(score.packets) / wall;
  score.perf = net.loop().perf();
  return score;
}

// ---------------------------------------------------------------------------
// The Fig. 2 RUBiS path: the real testbed (EC2 profile) under a short
// closed-loop run, once per security arm (basic, HIP with its ESP
// datapath, SSL). This is the exact spine the paper reproduction
// stresses.

/// The budgets `--quick` enforces on every arm: heap allocations per
/// completed request, and the heap a world holds once its run ends (the
/// largest arm's, HIP's 412,448 bytes, plus 25%).
constexpr double kMaxAllocsPerRequest = 100.0;
constexpr std::int64_t kMaxLiveHeapBytes = 516'000;

struct RubisScore {
  core::SecurityMode mode;
  std::uint64_t completed;
  double allocs_per_request;
  /// Heap the world holds once its run ends (the testbed still alive),
  /// over the heap before it was built. The RUBiS dataset is built once
  /// per process and shared by every world, so it is not part of this.
  std::int64_t live_heap_bytes;
  /// Callback slots in the world's event arena once its run ends.
  std::size_t arena_slots;
  double wall_seconds;
  sim::PerfCounters perf;
};

core::TestbedConfig rubis_config(core::SecurityMode mode) {
  core::TestbedConfig cfg;
  cfg.provider = cloud::ProviderProfile::ec2();
  cfg.deployment.mode = mode;
  return cfg;
}

RubisScore run_rubis(core::SecurityMode mode, int clients,
                     double sim_seconds) {
  const std::int64_t live0 = live_bytes_now();
  std::int64_t live1 = 0;
  RubisScore score{};
  score.mode = mode;
  {
    core::Testbed bed(rubis_config(mode));
    const auto t0 = Clock::now();
    const std::uint64_t allocs0 = allocs_now();
    const auto report = bed.run_closed_loop(
        clients, static_cast<sim::Duration>(sim_seconds * sim::kSecond));
    const std::uint64_t allocs1 = allocs_now();
    live1 = live_bytes_now();
    score.completed = report.completed;
    score.allocs_per_request =
        report.completed ? static_cast<double>(allocs1 - allocs0) /
                               static_cast<double>(report.completed)
                         : 0.0;
    score.wall_seconds = seconds_since(t0);
    score.perf = bed.network().perf();
    score.arena_slots = bed.network().loop().arena_slots();
  }
  score.live_heap_bytes = live1 - live0;
  return score;
}

// ---------------------------------------------------------------------------
// BENCH_sim.json. The "seed" constants are the numbers this same binary
// measured on the pre-overhaul tree (std::function event loop, Bytes
// payload pipeline), recorded so the before/after story survives in the
// artifact without needing to rebuild the old code.

constexpr double kSeedTcpAllocsPerPacket = 7.50;
constexpr double kSeedRubisAllocsPerRequest = 1250.6;

void write_rubis_json(std::FILE* f, const RubisScore& rubis, bool last) {
  std::fprintf(f, "  \"rubis_%s\": {\n", core::mode_name(rubis.mode));
  std::fprintf(f, "    \"completed_requests\": %llu,\n",
               static_cast<unsigned long long>(rubis.completed));
  if (rubis.mode == core::SecurityMode::kHip) {
    std::fprintf(f,
                 "    \"heap_allocs_per_request\": {\"before\": %.1f, "
                 "\"after\": %.1f},\n",
                 kSeedRubisAllocsPerRequest, rubis.allocs_per_request);
  } else {
    std::fprintf(f, "    \"heap_allocs_per_request\": %.1f,\n",
                 rubis.allocs_per_request);
  }
  std::fprintf(f, "    \"live_heap_bytes\": %lld,\n",
               static_cast<long long>(rubis.live_heap_bytes));
  std::fprintf(f, "    \"arena_slots\": %zu,\n", rubis.arena_slots);
  std::fprintf(f, "    \"wall_seconds\": %.2f,\n", rubis.wall_seconds);
  std::fprintf(f, "    \"sim_perf\": {\n");
  rubis.perf.write_json_fields(f, "      ");
  std::fprintf(f, "\n    }\n  }%s\n", last ? "" : ",");
}

void write_sim_json(const LoopScore& loop, const EchoScore& echo,
                    std::int64_t dataset_bytes,
                    const std::vector<RubisScore>& rubis, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: could not write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"title\": \"Simulator core: event engine and packet "
               "datapath\",\n");
  std::fprintf(f, "  \"event_loop\": {\n");
  std::fprintf(f, "    \"schedule_fire_mops\": %.2f,\n",
               loop.schedule_fire_mops);
  std::fprintf(f, "    \"schedule_cancel_mops\": %.2f,\n", loop.cancel_mops);
  std::fprintf(f, "    \"schedule_reschedule_mops\": %.2f\n",
               loop.reschedule_mops);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"tcp_echo\": {\n");
  std::fprintf(f, "    \"round_trips\": %llu,\n",
               static_cast<unsigned long long>(echo.round_trips));
  std::fprintf(f, "    \"packets_delivered\": %llu,\n",
               static_cast<unsigned long long>(echo.packets));
  std::fprintf(f,
               "    \"heap_allocs_per_packet\": {\"before\": %.2f, "
               "\"after\": %.2f},\n",
               kSeedTcpAllocsPerPacket, echo.allocs_per_packet);
  std::fprintf(f, "    \"packets_per_wall_second\": %.0f,\n",
               echo.sim_packets_per_wall_second);
  std::fprintf(f, "    \"sim_perf\": {\n");
  echo.perf.write_json_fields(f, "      ");
  std::fprintf(f, "\n    }\n  },\n");
  std::fprintf(f, "  \"rubis_dataset_bytes\": %lld,\n",
               static_cast<long long>(dataset_bytes));
  for (std::size_t i = 0; i < rubis.size(); ++i) {
    write_rubis_json(f, rubis[i], i + 1 == rubis.size());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nWrote %s\n", path);
}

}  // namespace
}  // namespace hipcloud::bench

int main(int argc, char** argv) {
  using namespace hipcloud::bench;
  using hipcloud::core::SecurityMode;
  using hipcloud::core::mode_name;
  // Smaller iteration counts for CTest smoke runs: micro_sim --quick
  const bool quick = argc > 1 && std::string_view(argv[1]) == "--quick";
  const std::size_t events = quick ? 200'000 : 2'000'000;
  const std::size_t churn = quick ? 200'000 : 2'000'000;
  const std::uint64_t echos = quick ? 2'000 : 20'000;
  // The RUBiS arms are cheap (well under a second each) and the --quick
  // gate needs steady state, so both modes run them at full length.
  const double rubis_secs = 8.0;

  std::printf("Simulator-core micro-bench\n==========================\n\n");

  const auto loop = run_loop_bench(events, churn);
  std::printf("event loop (sim::EventLoop)\n"
              "  schedule+fire: %8.2f M ops/s\n"
              "  schedule+cancel: %6.2f M ops/s\n"
              "  reschedule: %11.2f M ops/s\n\n",
              loop.schedule_fire_mops, loop.cancel_mops,
              loop.reschedule_mops);

  const auto echo = run_tcp_echo(echos);
  std::printf("tcp echo (1 KiB, %llu round trips)\n"
              "  packets delivered: %llu\n"
              "  heap allocs/packet: %.2f\n"
              "  packets/wall-second: %.0f\n\n",
              static_cast<unsigned long long>(echo.round_trips),
              static_cast<unsigned long long>(echo.packets),
              echo.allocs_per_packet, echo.sim_packets_per_wall_second);

  // The dataset every RUBiS world shares, built once before the arms so
  // that no arm's live heap counts it.
  const std::int64_t dataset0 = live_bytes_now();
  const auto tables = hipcloud::apps::rubis_tables(
      rubis_config(SecurityMode::kBasic).deployment.dataset);
  const std::int64_t dataset_bytes = live_bytes_now() - dataset0;
  std::printf("rubis dataset (built once, shared): %.2f MB\n\n",
              static_cast<double>(dataset_bytes) / 1e6);

  std::vector<RubisScore> arms;
  bool over_budget = false;
  for (const auto mode :
       {SecurityMode::kBasic, SecurityMode::kHip, SecurityMode::kSsl}) {
    const auto rubis = run_rubis(mode, 4, rubis_secs);
    std::printf("rubis-%s closed loop (4 clients, %.0f sim-s)\n"
                "  completed requests: %llu\n"
                "  heap allocs/request: %.1f (budget %.0f)\n"
                "  live heap after run: %.2f MB (budget %.2f)\n"
                "  event arena slots after run: %zu\n"
                "  pool misses/packet: %.2f (hit rate %.0f%%)\n"
                "  wall seconds: %.2f\n\n",
                mode_name(mode), rubis_secs,
                static_cast<unsigned long long>(rubis.completed),
                rubis.allocs_per_request, kMaxAllocsPerRequest,
                static_cast<double>(rubis.live_heap_bytes) / 1e6,
                static_cast<double>(kMaxLiveHeapBytes) / 1e6,
                rubis.arena_slots, rubis.perf.pool_misses_per_packet(),
                100.0 * rubis.perf.pool_hit_rate(), rubis.wall_seconds);
    if (rubis.completed == 0 ||
        rubis.allocs_per_request > kMaxAllocsPerRequest) {
      std::printf("FAIL: rubis-%s exceeds %.0f heap allocations per "
                  "request\n\n",
                  mode_name(mode), kMaxAllocsPerRequest);
      over_budget = true;
    }
    if (rubis.live_heap_bytes > kMaxLiveHeapBytes) {
      std::printf("FAIL: rubis-%s holds more than %.2f MB of heap after "
                  "its run\n\n",
                  mode_name(mode),
                  static_cast<double>(kMaxLiveHeapBytes) / 1e6);
      over_budget = true;
    }
    arms.push_back(rubis);
  }

  // The quick CTest smoke run keeps the JSON artifact from the full run.
  if (!quick) {
    write_sim_json(loop, echo, dataset_bytes, arms, "BENCH_sim.json");
  }
  return over_budget ? 1 : 0;
}
