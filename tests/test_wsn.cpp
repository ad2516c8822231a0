// WSN duty-cycle tests (Section 2 motivation): a cluster of redundant
// sensors scheduled by wait-free <>WX dining — coverage survives battery
// deaths, redundancy stays bounded, and the network outlives any single
// battery; the all-on baseline dies with its first battery.
#include <gtest/gtest.h>

#include <memory>

#include "detect/oracle.hpp"
#include "dining/instance.hpp"
#include "graph/conflict_graph.hpp"
#include "sim/engine.hpp"
#include "wsn/duty_cycle.hpp"

namespace wfd::wsn {
namespace {

constexpr sim::Port kDiningPort = 7;
constexpr std::uint64_t kTag = 3;

struct WsnRig {
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleEventuallyPerfect>> detectors;
  dining::BuiltInstance instance;
  std::vector<std::shared_ptr<SensorNode>> sensors;
  ClusterMonitor monitor;

  WsnRig(std::uint32_t n, std::uint64_t seed, const SensorConfig& sensor_config,
         bool edgeless = false)
      : engine(sim::EngineConfig{.seed = seed}),
        monitor(kTag, [n] {
          std::vector<sim::ProcessId> m;
          for (sim::ProcessId p = 0; p < n; ++p) m.push_back(p);
          return m;
        }()) {
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    std::vector<const detect::FailureDetector*> fds;
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto oracle = std::make_shared<detect::OracleEventuallyPerfect>(
          engine, p, n, 25, std::vector<detect::MistakeWindow>{}, 0xFD);
      detectors.push_back(oracle);
      hosts[p]->add_component(oracle, {});
      fds.push_back(oracle.get());
    }
    dining::DiningInstanceConfig config;
    config.port = kDiningPort;
    config.tag = kTag;
    for (sim::ProcessId p = 0; p < n; ++p) config.members.push_back(p);
    config.graph = edgeless ? graph::ConflictGraph(n) : graph::make_clique(n);
    instance = dining::build_dining_instance(hosts, config, fds);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto sensor = std::make_shared<SensorNode>(*instance.diners[i],
                                                 sensor_config);
      sensors.push_back(sensor);
      hosts[i]->add_component(sensor, {});
    }
    engine.trace().subscribe_kinds(
        sim::kind_mask(sim::EventKind::kDinerTransition,
                       sim::EventKind::kCrash),
        [this](const sim::Event& e) { monitor.on_event(e); });
  }
};

TEST(Wsn, ScheduledClusterSharesDuty) {
  WsnRig rig(3, 61, SensorConfig{.battery = 1000000});  // effectively infinite
  rig.engine.init();
  rig.engine.run(60000);
  rig.monitor.finalize(rig.engine.now());
  for (const auto& sensor : rig.sensors) {
    EXPECT_GT(sensor->shifts(), 10u) << "every sensor takes shifts";
  }
  EXPECT_GT(rig.monitor.coverage_fraction(), 0.7);
  EXPECT_LT(rig.monitor.redundancy_fraction(), 0.05)
      << "a converged <>WX scheduler rarely double-schedules";
}

TEST(Wsn, SchedulerOutlivesIndividualBatteries) {
  // Battery covers ~2500 on-duty ticks; three sensors sharing duty should
  // keep the cluster alive roughly three times longer than one battery.
  WsnRig scheduled(3, 62, SensorConfig{.battery = 2500});
  scheduled.engine.init();
  scheduled.engine.run(60000);
  scheduled.monitor.finalize(scheduled.engine.now());

  WsnRig all_on(3, 62,
                SensorConfig{.battery = 2500, .always_on = true},
                /*edgeless=*/true);
  all_on.engine.init();
  all_on.engine.run(60000);
  all_on.monitor.finalize(all_on.engine.now());

  EXPECT_GT(scheduled.monitor.lifetime(), 2 * all_on.monitor.lifetime())
      << "duty cycling must extend network lifetime";
}

TEST(Wsn, AllOnBaselineDiesWithItsBatteries) {
  WsnRig rig(2, 63, SensorConfig{.battery = 1500, .always_on = true},
             /*edgeless=*/true);
  rig.engine.init();
  rig.engine.run(60000);
  rig.monitor.finalize(rig.engine.now());
  // All batteries drain in parallel: lifetime ~ one battery.
  EXPECT_LT(rig.monitor.lifetime(), 4000u);
  EXPECT_FALSE(rig.engine.is_live(0));
  EXPECT_FALSE(rig.engine.is_live(1));
}

TEST(Wsn, CoverageSurvivesNodeCrash) {
  WsnRig rig(3, 64, SensorConfig{.battery = 1000000});
  rig.engine.schedule_crash(0, 5000);
  rig.engine.init();
  rig.engine.run(80000);
  rig.monitor.finalize(rig.engine.now());
  // Wait-freedom: the survivors keep the cluster covered after the crash.
  EXPECT_GT(rig.monitor.lifetime(), 79000u);
  EXPECT_GT(rig.sensors[1]->shifts() + rig.sensors[2]->shifts(), 100u);
}

TEST(Wsn, DepletionIsACrash) {
  WsnRig rig(2, 65, SensorConfig{.battery = 300, .duty_length = 50});
  rig.engine.init();
  rig.engine.run(100000);
  EXPECT_FALSE(rig.engine.is_live(0));
  EXPECT_FALSE(rig.engine.is_live(1));
  for (const auto& sensor : rig.sensors) EXPECT_EQ(sensor->battery(), 0u);
}

}  // namespace
}  // namespace wfd::wsn
