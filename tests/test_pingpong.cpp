// Tests for the ping-pong (query/response) <>P implementation, and a
// cross-implementation check: both native detectors drive the wait-free
// dining algorithm equally well.
#include <gtest/gtest.h>

#include <memory>

#include "detect/pingpong_detector.hpp"
#include "detect/properties.hpp"
#include "dining/client.hpp"
#include "dining/instance.hpp"
#include "dining/monitors.hpp"
#include "graph/conflict_graph.hpp"
#include "sim/engine.hpp"

namespace wfd::detect {
namespace {

struct PingPongRig {
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<PingPongDetector>> detectors;

  PingPongRig(std::uint32_t n, std::uint64_t seed, sim::Time gst,
              sim::Time delta)
      : engine(sim::EngineConfig{.seed = seed}) {
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto detector = std::make_shared<PingPongDetector>(
          p, n, PingPongConfig{.port = 110});
      detectors.push_back(detector);
      hosts[p]->add_component(detector, {110});
    }
    engine.set_delay_model(
        std::make_unique<sim::PartialSynchronyDelay>(gst, delta, gst));
    engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  }
};

TEST(PingPongDetector, StrongCompleteness) {
  PingPongRig rig(3, 1, /*gst=*/200, /*delta=*/3);
  rig.engine.schedule_crash(2, 600);
  rig.engine.init();
  rig.engine.run(30000);
  EXPECT_TRUE(rig.detectors[0]->suspects(2));
  EXPECT_TRUE(rig.detectors[1]->suspects(2));
  rig.engine.run(10000);
  EXPECT_TRUE(rig.detectors[0]->suspects(2)) << "suspicion must be permanent";
}

TEST(PingPongDetector, EventualStrongAccuracy) {
  PingPongRig rig(3, 2, /*gst=*/500, /*delta=*/3);
  rig.engine.init();
  rig.engine.run(40000);
  for (sim::ProcessId p = 0; p < 3; ++p) {
    for (sim::ProcessId q = 0; q < 3; ++q) {
      if (p != q) {
        EXPECT_FALSE(rig.detectors[p]->suspects(q)) << p << "->" << q;
      }
    }
  }
  const auto flips = rig.detectors[0]->transition_count();
  rig.engine.run(20000);
  EXPECT_EQ(rig.detectors[0]->transition_count(), flips);
}

TEST(PingPongDetector, AdaptsTimeoutOnMistake) {
  sim::Engine engine(sim::EngineConfig{.seed = 3});
  std::vector<std::shared_ptr<PingPongDetector>> detectors;
  for (sim::ProcessId p = 0; p < 2; ++p) {
    auto det = std::make_shared<PingPongDetector>(
        p, 2,
        PingPongConfig{.port = 110, .initial_timeout = 3,
                       .timeout_increment = 10});
    detectors.push_back(det);
    auto host = std::make_unique<sim::ComponentHost>();
    host->add_component(det, {110});
    engine.add_process(std::move(host));
  }
  engine.set_delay_model(std::make_unique<sim::UniformDelay>(5, 20));
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.init();
  engine.run(8000);
  EXPECT_GT(detectors[0]->current_timeout(1), 3u);
  EXPECT_GT(detectors[0]->transition_count(), 0u);
}

TEST(PingPongDetector, GradedEventuallyPerfectByMonitor) {
  PingPongRig rig(3, 4, /*gst=*/300, /*delta=*/3);
  DetectorHistory history(0);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (sim::ProcessId p = 0; p < 3; ++p) {
    for (sim::ProcessId q = 0; q < 3; ++q) {
      if (p != q) history.set_initial(p, q, false);
    }
  }
  rig.engine.schedule_crash(1, 1500);
  rig.engine.init();
  rig.engine.run(40000);
  EXPECT_TRUE(history.strong_completeness(rig.engine).holds);
  EXPECT_TRUE(history.eventual_strong_accuracy(rig.engine).holds);
}

TEST(PingPongDetector, DrivesWaitFreeDining) {
  // Swap the oracle for the ping-pong implementation inside the dining
  // algorithm: same wait-freedom and convergence guarantees.
  PingPongRig rig(3, 5, /*gst=*/400, /*delta=*/3);
  dining::DiningInstanceConfig config;
  config.port = 10;
  config.tag = 1;
  config.members = {0, 1, 2};
  config.graph = graph::make_ring(3);
  std::vector<const FailureDetector*> fds;
  for (const auto& d : rig.detectors) fds.push_back(d.get());
  auto instance = dining::build_dining_instance(rig.hosts, config, fds);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *instance.diners[i], dining::ClientConfig{});
    rig.hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  dining::DiningMonitor monitor(rig.engine, config);
  dining::DiningMonitor::attach(rig.engine, monitor);
  rig.engine.schedule_crash(2, 3000);
  rig.engine.init();
  rig.engine.run(120000);
  std::string detail;
  EXPECT_TRUE(monitor.wait_free(rig.engine.now(), 30000, &detail)) << detail;
  EXPECT_EQ(monitor.violations_since(rig.engine.now() - 50000), 0u);
}

}  // namespace
}  // namespace wfd::detect
