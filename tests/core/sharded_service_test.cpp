#include "core/sharded_service.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace hipcloud::core {
namespace {

cloud::FabricConfig small_fabric() {
  cloud::FabricConfig cfg;
  cfg.racks = 4;  // proxy rack, two web racks, db rack
  cfg.hosts_per_rack = 1;
  cfg.vms_per_host = 1;
  return cfg;
}

ShardedServiceConfig small_service(SecurityMode mode) {
  ShardedServiceConfig cfg;
  cfg.mode = mode;
  cfg.dataset.items = 200;
  cfg.dataset.users = 50;
  cfg.dataset.bids = 400;
  cfg.clients_per_rack = 2;
  cfg.duration = 2 * sim::kSecond;
  return cfg;
}

struct ServiceRun {
  std::uint64_t hash;
  std::uint64_t completed;
  std::uint64_t errors;
  std::uint64_t esp;
};

ServiceRun run_service(SecurityMode mode, unsigned workers) {
  cloud::ShardedFabric fabric(small_fabric());
  ShardedService service(fabric, small_service(mode));
  service.prepare();
  fabric.run(sim::kSecond, workers);  // BEX warm-up window
  service.start_clients();
  fabric.run(5 * sim::kSecond, workers);
  const auto report = service.report();
  return ServiceRun{fabric.world_hash(), report.completed, report.errors,
                    service.total_esp_packets()};
}

class ShardedModeTest : public ::testing::TestWithParam<SecurityMode> {};

TEST_P(ShardedModeTest, ServesCrossRackTrafficAndHashIsWorkerInvariant) {
  const ServiceRun base = run_service(GetParam(), 1);
  EXPECT_GT(base.completed, 50u);
  EXPECT_EQ(base.errors, 0u);
  if (GetParam() == SecurityMode::kHip) {
    // Proxy->web and web->db hops all ride BEET-ESP across shard seams.
    EXPECT_GT(base.esp, 100u);
  }
  for (const unsigned workers : {2u, 4u}) {
    const ServiceRun r = run_service(GetParam(), workers);
    EXPECT_EQ(r.hash, base.hash) << "workers=" << workers;
    EXPECT_EQ(r.completed, base.completed) << "workers=" << workers;
    EXPECT_EQ(r.esp, base.esp) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ShardedModeTest,
                         ::testing::Values(SecurityMode::kBasic,
                                           SecurityMode::kHip,
                                           SecurityMode::kSsl),
                         [](const auto& name_info) {
                           return std::string(mode_name(name_info.param));
                         });

TEST(ShardedService, ProxySpreadsLoadAcrossWebRacks) {
  cloud::ShardedFabric fabric(small_fabric());
  ShardedService service(fabric, small_service(SecurityMode::kBasic));
  service.start_clients();
  fabric.run(5 * sim::kSecond, 2);
  const auto& dispatched = service.proxy().dispatched();
  ASSERT_EQ(dispatched.size(), 2u);  // racks 1 and 2
  EXPECT_GT(dispatched[0], 0u);
  EXPECT_GT(dispatched[1], 0u);
  EXPECT_EQ(service.web_rack(0), 1u);
  EXPECT_EQ(service.web_rack(1), 2u);
}

}  // namespace
}  // namespace hipcloud::core
