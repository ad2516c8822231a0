// Parameterized property suites: the paper's correctness properties swept
// across topologies, system sizes, seeds, crash patterns and adversarial
// box configurations. Each TEST_P asserts an invariant or an eventual
// property of a whole run, not a specific trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "detect/heartbeat_detector.hpp"
#include "detect/properties.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "mutex/ra_mutex.hpp"
#include "reduce/extraction.hpp"

namespace wfd {
namespace {

using harness::Rig;
using harness::RigOptions;

// --- dining sweep -----------------------------------------------------------

enum class Topology { kRing, kClique, kStar, kPath };

graph::ConflictGraph make_topology(Topology topology, std::uint32_t n) {
  switch (topology) {
    case Topology::kRing: return graph::make_ring(n);
    case Topology::kClique: return graph::make_clique(n);
    case Topology::kStar: return graph::make_star(n);
    case Topology::kPath: return graph::make_path(n);
  }
  return graph::make_ring(n);
}

std::string topology_name(Topology topology) {
  switch (topology) {
    case Topology::kRing: return "Ring";
    case Topology::kClique: return "Clique";
    case Topology::kStar: return "Star";
    case Topology::kPath: return "Path";
  }
  return "?";
}

using DiningParam = std::tuple<Topology, std::uint32_t /*n*/,
                               std::uint64_t /*seed*/, std::uint32_t /*crashes*/>;

class DiningSweep : public ::testing::TestWithParam<DiningParam> {};

TEST_P(DiningSweep, WaitFreeEventuallyExclusiveAndForksUnique) {
  const auto [topology, n, seed, crashes] = GetParam();
  RigOptions options{.seed = seed, .n = n, .detector_lag = 25};
  // A mistake window to exercise the <>WX convergence path on every run.
  options.mistakes = {{0, 1, 300, 1500}};
  Rig rig(options);
  auto graph = make_topology(topology, n);
  auto instance = rig.add_wait_free_dining(10, 1, graph);
  auto clients = rig.add_clients(
      instance, dining::ClientConfig{.think_min = 1, .think_max = 6});
  for (std::uint32_t c = 0; c < crashes; ++c) {
    rig.engine.schedule_crash(n - 1 - c, 2000 + 1500 * c);
  }
  dining::DiningMonitor monitor(rig.engine, instance.config);
  dining::DiningMonitor::attach(rig.engine, monitor);
  rig.engine.init();

  // Invariant sampling: a fork is held by at most one endpoint, always.
  for (int slice = 0; slice < 40; ++slice) {
    rig.engine.run(2500);
    for (const auto& [u, v] : graph.edges()) {
      ASSERT_FALSE(instance.diners[u]->holds_fork(v) &&
                   instance.diners[v]->holds_fork(u))
          << "fork duplicated on edge (" << u << "," << v << ") at t="
          << rig.engine.now();
    }
  }

  // Eventual weak exclusion: violations confined to a finite prefix.
  EXPECT_EQ(monitor.violations_since(rig.engine.now() - 60000), 0u)
      << "violations in the final suffix";
  // Wait-freedom for correct diners.
  std::string detail;
  EXPECT_TRUE(monitor.wait_free(rig.engine.now(), 30000, &detail)) << detail;
  // Progress everywhere.
  for (std::uint32_t d = 0; d < n; ++d) {
    if (rig.engine.is_correct(d)) {
      EXPECT_GT(monitor.meals(d), 10u) << "diner " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiningSweep,
    ::testing::Combine(::testing::Values(Topology::kRing, Topology::kClique,
                                         Topology::kStar, Topology::kPath),
                       ::testing::Values(3u, 5u),
                       ::testing::Values(101ull, 202ull),
                       ::testing::Values(0u, 1u)),
    [](const ::testing::TestParamInfo<DiningParam>& info) {
      return topology_name(std::get<0>(info.param)) + "N" +
             std::to_string(std::get<1>(info.param)) + "Seed" +
             std::to_string(std::get<2>(info.param)) + "Crash" +
             std::to_string(std::get<3>(info.param));
    });

// --- reduction sweep ---------------------------------------------------------

enum class BoxKind { kReal, kScriptedLockout, kScriptedForkBased, kUnfair };

std::string box_name(BoxKind kind) {
  switch (kind) {
    case BoxKind::kReal: return "Real";
    case BoxKind::kScriptedLockout: return "Lockout";
    case BoxKind::kScriptedForkBased: return "ForkBased";
    case BoxKind::kUnfair: return "Unfair";
  }
  return "?";
}

using ReductionParam = std::tuple<BoxKind, std::uint64_t /*seed*/,
                                  bool /*crash*/>;

class ReductionSweep : public ::testing::TestWithParam<ReductionParam> {};

TEST_P(ReductionSweep, ExtractedDetectorIsEventuallyPerfect) {
  const auto [kind, seed, crash] = GetParam();
  Rig rig(RigOptions{.seed = seed, .n = 2, .detector_lag = 25});
  std::unique_ptr<reduce::BoxFactory> factory;
  switch (kind) {
    case BoxKind::kReal:
      factory = std::make_unique<reduce::WaitFreeBoxFactory>(
          [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
      break;
    case BoxKind::kScriptedLockout:
      factory = std::make_unique<reduce::ScriptedBoxFactory>(
          rig.engine, 2000, dining::BoxSemantics::kLockout);
      break;
    case BoxKind::kScriptedForkBased:
      factory = std::make_unique<reduce::ScriptedBoxFactory>(
          rig.engine, 2000, dining::BoxSemantics::kForkBased);
      break;
    case BoxKind::kUnfair:
      factory = std::make_unique<reduce::ScriptedBoxFactory>(
          rig.engine, 500, dining::BoxSemantics::kLockout, 4);
      break;
  }
  auto extraction = reduce::build_full_extraction(rig.hosts, *factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  if (crash) rig.engine.schedule_crash(1, 5000);
  rig.engine.init();
  rig.engine.run(200000);
  const auto completeness = history.strong_completeness(rig.engine);
  const auto accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(completeness.holds) << completeness.detail;
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionSweep,
    ::testing::Combine(::testing::Values(BoxKind::kReal,
                                         BoxKind::kScriptedLockout,
                                         BoxKind::kScriptedForkBased,
                                         BoxKind::kUnfair),
                       ::testing::Values(301ull, 302ull, 303ull),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ReductionParam>& info) {
      return box_name(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "Crash" : "NoCrash");
    });

// --- heartbeat detector sweep ------------------------------------------------

using HeartbeatParam = std::tuple<sim::Time /*gst*/, sim::Time /*delta*/,
                                  std::uint64_t /*seed*/>;

class HeartbeatSweep : public ::testing::TestWithParam<HeartbeatParam> {};

TEST_P(HeartbeatSweep, EventuallyPerfectUnderPartialSynchrony) {
  const auto [gst, delta, seed] = GetParam();
  sim::Engine engine(sim::EngineConfig{.seed = seed});
  constexpr std::uint32_t n = 3;
  std::vector<std::shared_ptr<detect::HeartbeatDetector>> detectors;
  for (sim::ProcessId p = 0; p < n; ++p) {
    auto detector = std::make_shared<detect::HeartbeatDetector>(
        p, n, detect::HeartbeatConfig{.port = 100});
    detectors.push_back(detector);
    auto host = std::make_unique<sim::ComponentHost>();
    host->add_component(detector, {100});
    engine.add_process(std::move(host));
  }
  engine.set_delay_model(
      std::make_unique<sim::PartialSynchronyDelay>(gst, delta, gst));
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.schedule_crash(2, gst + 2000);
  engine.init();
  engine.run(20 * gst + 80000);
  // Completeness + accuracy in the suffix.
  EXPECT_TRUE(detectors[0]->suspects(2));
  EXPECT_TRUE(detectors[1]->suspects(2));
  EXPECT_FALSE(detectors[0]->suspects(1));
  EXPECT_FALSE(detectors[1]->suspects(0));
  // Converged: no more flips.
  const auto flips = detectors[0]->transition_count();
  engine.run(20000);
  EXPECT_EQ(detectors[0]->transition_count(), flips);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeartbeatSweep,
    ::testing::Combine(::testing::Values(100u, 1000u, 5000u),
                       ::testing::Values(2u, 8u),
                       ::testing::Values(11ull, 12ull)),
    [](const ::testing::TestParamInfo<HeartbeatParam>& info) {
      return "Gst" + std::to_string(std::get<0>(info.param)) + "Delta" +
             std::to_string(std::get<1>(info.param)) + "Seed" +
             std::to_string(std::get<2>(info.param));
    });

// --- FTME sweep ---------------------------------------------------------------

using MutexParam = std::tuple<std::uint32_t /*n*/, std::uint32_t /*crashes*/,
                              std::uint64_t /*seed*/>;

class MutexSweep : public ::testing::TestWithParam<MutexParam> {};

TEST_P(MutexSweep, PerpetualExclusionAndProgress) {
  const auto [n, crashes, seed] = GetParam();
  sim::Engine engine(sim::EngineConfig{.seed = seed});
  std::vector<sim::ComponentHost*> hosts;
  for (sim::ProcessId p = 0; p < n; ++p) {
    auto host = std::make_unique<sim::ComponentHost>();
    hosts.push_back(host.get());
    engine.add_process(std::move(host));
  }
  std::vector<const detect::TrustingDetector*> views;
  std::vector<std::shared_ptr<detect::OracleTrusting>> oracles;
  for (sim::ProcessId p = 0; p < n; ++p) {
    auto oracle =
        std::make_shared<detect::OracleTrusting>(engine, p, n, 25, 0, 0xFD);
    hosts[p]->add_component(oracle, {});
    oracles.push_back(oracle);
    views.push_back(oracle.get());
  }
  mutex::RaMutexConfig config;
  config.port = 50;
  config.tag = 7;
  for (sim::ProcessId p = 0; p < n; ++p) config.members.push_back(p);
  auto diners = mutex::build_ra_mutex(hosts, config, views);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *diners[i], dining::ClientConfig{.think_min = 1, .think_max = 4});
    hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  dining::DiningMonitor monitor(
      engine, dining::DiningInstanceConfig{50, 7, config.members,
                                           graph::make_clique(n)});
  dining::DiningMonitor::attach(engine, monitor);
  for (std::uint32_t c = 0; c < crashes; ++c) {
    engine.schedule_crash(c, 1500 + 1500 * c);
  }
  engine.init();
  engine.run(40000ull * n);
  EXPECT_EQ(monitor.exclusion_violations(), 0u) << "perpetual WX violated";
  std::string detail;
  EXPECT_TRUE(monitor.wait_free(engine.now(), 30000, &detail)) << detail;
  for (std::uint32_t i = crashes; i < n; ++i) {
    EXPECT_GT(diners[i]->meals(), 10u) << "member " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutexSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 5u),
                       ::testing::Values(0u, 1u),
                       ::testing::Values(401ull, 402ull)),
    [](const ::testing::TestParamInfo<MutexParam>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "Crash" +
             std::to_string(std::get<1>(info.param)) + "Seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace wfd
