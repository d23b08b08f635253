// Absolute pins for both placements of the Fig. 1 service. A change in
// how the tiers are built, such as a host-identity label or the DB cost
// model, moves the determinism hash while every behavioural test still
// passes; these values catch it in tier-1. The hash folds the event
// stream, not payload bytes, so a change that only alters ciphertext
// (a TLS seed, say) is out of its reach.

#include <gtest/gtest.h>

#include <type_traits>

#include "core/sharded_service.hpp"
#include "core/testbed.hpp"

namespace hipcloud::core {
namespace {

// gtest names each case after a byte dump of its parameter, padding
// included. `pad` fills the hole after `mode`, so the names carry no
// uninitialised stack bytes that change from one run to the next.
struct Golden {
  SecurityMode mode;
  std::uint32_t pad = 0;
  std::uint64_t hash;
  std::uint64_t completed;
  std::uint64_t esp;
};
static_assert(std::has_unique_object_representations_v<Golden>);

std::string golden_name(const ::testing::TestParamInfo<Golden>& name_info) {
  return mode_name(name_info.param.mode);
}

class TestbedGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(TestbedGolden, HashCompletedAndEspArePinned) {
  TestbedConfig cfg;
  cfg.deployment.mode = GetParam().mode;
  cfg.deployment.web_servers = 2;
  cfg.deployment.dataset.items = 100;
  cfg.deployment.dataset.users = 30;
  cfg.deployment.dataset.bids = 200;
  Testbed bed(cfg);
  const auto report = bed.run_closed_loop(3, 3 * sim::kSecond);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(bed.network().perf().determinism_hash, GetParam().hash);
  EXPECT_EQ(report.completed, GetParam().completed);
  EXPECT_EQ(bed.service().total_esp_packets(), GetParam().esp);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TestbedGolden,
    ::testing::Values(
        Golden{.mode = SecurityMode::kBasic, .hash = 0x7f4664f2650c6939ULL,
               .completed = 53, .esp = 0},
        Golden{.mode = SecurityMode::kHip, .hash = 0xe95bca7bddb9a731ULL,
               .completed = 54, .esp = 4432},
        Golden{.mode = SecurityMode::kSsl, .hash = 0xf37bfb423555d135ULL,
               .completed = 54, .esp = 0}),
    golden_name);

// The golden Testbed through a fault: web VM 0 goes down for three
// seconds and the DB VM for half a second, with a short proxy upstream
// timeout. The run goes through the pooled clients' and the proxy's
// failure paths (upstream timeouts, retries, an ejection and a revival),
// which no fault-free golden reaches.
struct FaultGolden {
  SecurityMode mode;
  std::uint32_t pad = 0;
  std::uint64_t hash;
  std::uint64_t completed;
  std::uint64_t errors;
  std::uint64_t retries;
  std::uint64_t ejections;
  std::uint64_t revivals;
};
static_assert(std::has_unique_object_representations_v<FaultGolden>);

std::string fault_golden_name(
    const ::testing::TestParamInfo<FaultGolden>& name_info) {
  return mode_name(name_info.param.mode);
}

class TestbedFaultGolden : public ::testing::TestWithParam<FaultGolden> {};

TEST_P(TestbedFaultGolden, HashCountsAndProxyEventsArePinned) {
  TestbedConfig cfg;
  cfg.deployment.mode = GetParam().mode;
  cfg.deployment.web_servers = 2;
  cfg.deployment.dataset.items = 100;
  cfg.deployment.dataset.users = 30;
  cfg.deployment.dataset.bids = 200;
  cfg.deployment.proxy_health.upstream_timeout = 500 * sim::kMillisecond;
  Testbed bed(cfg);
  auto& loop = bed.network().loop();
  net::Node* web0 = bed.service().web_vms()[0]->node();
  net::Node* db = bed.service().db_vm()->node();
  const sim::Time t0 = loop.now();
  loop.schedule_at(t0 + 2500 * sim::kMillisecond,
                   [web0] { web0->set_down(true); });
  loop.schedule_at(t0 + 5500 * sim::kMillisecond,
                   [web0] { web0->set_down(false); });
  loop.schedule_at(t0 + 6 * sim::kSecond, [db] { db->set_down(true); });
  loop.schedule_at(t0 + 6500 * sim::kMillisecond,
                   [db] { db->set_down(false); });
  const auto report = bed.run_closed_loop(3, 9 * sim::kSecond);
  const auto& proxy = bed.service().proxy();
  EXPECT_EQ(bed.network().perf().determinism_hash, GetParam().hash);
  EXPECT_EQ(report.completed, GetParam().completed);
  EXPECT_EQ(report.errors, GetParam().errors);
  EXPECT_EQ(proxy.retries(), GetParam().retries);
  EXPECT_EQ(proxy.ejections(), GetParam().ejections);
  EXPECT_EQ(proxy.revivals(), GetParam().revivals);
  // The windows are chosen so that every failure path runs.
  EXPECT_GE(proxy.retries(), 1u);
  EXPECT_GE(proxy.ejections(), 1u);
  EXPECT_GE(proxy.revivals(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TestbedFaultGolden,
    ::testing::Values(
        FaultGolden{.mode = SecurityMode::kBasic,
                    .hash = 0x51f84fad28d4dae9ULL, .completed = 291,
                    .errors = 1, .retries = 6, .ejections = 2,
                    .revivals = 2},
        FaultGolden{.mode = SecurityMode::kHip,
                    .hash = 0xacab268fc10dafa9ULL, .completed = 288,
                    .errors = 2, .retries = 5, .ejections = 1,
                    .revivals = 1},
        FaultGolden{.mode = SecurityMode::kSsl,
                    .hash = 0xc00b4a401f4e54ffULL, .completed = 288,
                    .errors = 2, .retries = 5, .ejections = 2,
                    .revivals = 2}),
    fault_golden_name);

struct ShardedRun {
  apps::LoadReport report;
  sim::PerfCounters perf;
  std::uint64_t esp = 0;
};

/// The small 4-rack ShardedService world, run on `workers` threads.
ShardedRun run_sharded(SecurityMode mode, unsigned workers) {
  cloud::FabricConfig fcfg;
  fcfg.racks = 4;
  fcfg.hosts_per_rack = 1;
  fcfg.vms_per_host = 1;
  cloud::ShardedFabric fabric(fcfg);
  ShardedServiceConfig scfg;
  scfg.mode = mode;
  scfg.dataset.items = 100;
  scfg.dataset.users = 30;
  scfg.dataset.bids = 200;
  scfg.clients_per_rack = 2;
  scfg.duration = sim::kSecond;
  ShardedService service(fabric, scfg);
  service.prepare();
  fabric.run(sim::kSecond, workers);
  service.start_clients();
  fabric.run(4 * sim::kSecond, workers);
  return {service.report(), fabric.merged_perf(), service.total_esp_packets()};
}

class ShardedGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ShardedGolden, HashCompletedAndEspArePinned) {
  const ShardedRun run = run_sharded(GetParam().mode, 1);
  EXPECT_EQ(run.report.errors, 0u);
  EXPECT_EQ(run.perf.determinism_hash, GetParam().hash);
  EXPECT_EQ(run.report.completed, GetParam().completed);
  EXPECT_EQ(run.esp, GetParam().esp);
}

// The coordinator's slicing of the HIP world, pinned beside its hash.
// Epochs, strides and stride time are pure functions of the schedule, so
// a change to how rounds are crossed (barriers, drains, horizons) must
// reproduce them exactly at every worker count.
TEST(ShardedSchedule, HipEpochsStridesAndHashArePinnedAtEveryWorkerCount) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    const ShardedRun run = run_sharded(SecurityMode::kHip, workers);
    EXPECT_EQ(run.perf.determinism_hash, 0xb5e89cbc2db8c2fcULL)
        << "workers=" << workers;
    EXPECT_EQ(run.perf.shard_epochs, 7114u) << "workers=" << workers;
    EXPECT_EQ(run.perf.shard_strides, 28456u) << "workers=" << workers;
    EXPECT_EQ(run.perf.shard_stride_ns, 4132051528u) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ShardedGolden,
    ::testing::Values(
        Golden{.mode = SecurityMode::kBasic, .hash = 0x5bdd2f7ed1e4cce9ULL,
               .completed = 372, .esp = 0},
        Golden{.mode = SecurityMode::kHip, .hash = 0xb5e89cbc2db8c2fcULL,
               .completed = 262, .esp = 10421}),
    golden_name);

}  // namespace
}  // namespace hipcloud::core
