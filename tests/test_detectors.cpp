// Failure-detector tests: the native heartbeat <>P under partial synchrony,
// the scripted oracles as legal class instances, and the property monitors
// that grade them.
#include <gtest/gtest.h>

#include <memory>

#include "detect/heartbeat_detector.hpp"
#include "detect/oracle.hpp"
#include "detect/properties.hpp"
#include "sim/component.hpp"
#include "sim/engine.hpp"

namespace wfd::detect {
namespace {

using sim::ComponentHost;
using sim::Engine;
using sim::EngineConfig;
using sim::kNever;
using sim::ProcessId;
using sim::Time;

/// Build n hosts each carrying one heartbeat detector on port 100.
struct HeartbeatRig {
  Engine engine;
  std::vector<std::shared_ptr<HeartbeatDetector>> detectors;

  explicit HeartbeatRig(std::uint32_t n, std::uint64_t seed, Time gst,
                        Time delta)
      : engine(EngineConfig{.seed = seed}) {
    for (ProcessId p = 0; p < n; ++p) {
      auto detector = std::make_shared<HeartbeatDetector>(
          p, n, HeartbeatConfig{.port = 100});
      detectors.push_back(detector);
      auto host = std::make_unique<ComponentHost>();
      host->add_component(detector, {100});
      engine.add_process(std::move(host));
    }
    engine.set_delay_model(
        std::make_unique<sim::PartialSynchronyDelay>(gst, delta, gst));
    engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  }
};

TEST(HeartbeatDetector, StrongCompleteness) {
  HeartbeatRig rig(3, 1, /*gst=*/200, /*delta=*/3);
  rig.engine.schedule_crash(2, 600);
  rig.engine.init();
  rig.engine.run(20000);
  EXPECT_TRUE(rig.detectors[0]->suspects(2));
  EXPECT_TRUE(rig.detectors[1]->suspects(2));
  // and permanently: run on, still suspected
  rig.engine.run(5000);
  EXPECT_TRUE(rig.detectors[0]->suspects(2));
  EXPECT_TRUE(rig.detectors[1]->suspects(2));
}

TEST(HeartbeatDetector, EventualStrongAccuracy) {
  HeartbeatRig rig(3, 2, /*gst=*/400, /*delta=*/3);
  rig.engine.init();
  rig.engine.run(30000);
  // Converged: no correct process suspected.
  for (ProcessId p = 0; p < 3; ++p) {
    for (ProcessId q = 0; q < 3; ++q) {
      if (p != q) {
        EXPECT_FALSE(rig.detectors[p]->suspects(q));
      }
    }
  }
  // And stays that way (post-GST timeouts only grow).
  const auto flips_before = rig.detectors[0]->transition_count();
  rig.engine.run(10000);
  EXPECT_EQ(rig.detectors[0]->transition_count(), flips_before);
}

TEST(HeartbeatDetector, MistakesPossibleBeforeGst) {
  // Long pre-GST chaos with tiny initial timeout: some false suspicion is
  // essentially certain, and must later be withdrawn.
  Engine engine(EngineConfig{.seed = 5});
  std::vector<std::shared_ptr<HeartbeatDetector>> detectors;
  for (ProcessId p = 0; p < 2; ++p) {
    auto det = std::make_shared<HeartbeatDetector>(
        p, 2,
        HeartbeatConfig{.port = 100,
                        .heartbeat_every = 4,
                        .initial_timeout = 2,
                        .timeout_increment = 4});
    detectors.push_back(det);
    auto host = std::make_unique<ComponentHost>();
    host->add_component(det, {100});
    engine.add_process(std::move(host));
  }
  engine.set_delay_model(
      std::make_unique<sim::PartialSynchronyDelay>(2000, 3, 500));
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.init();
  engine.run(40000);
  EXPECT_GT(detectors[0]->transition_count() + detectors[1]->transition_count(),
            0u)
      << "expected at least one pre-GST mistake/withdrawal cycle";
  EXPECT_FALSE(detectors[0]->suspects(1));
  EXPECT_FALSE(detectors[1]->suspects(0));
}

TEST(HeartbeatDetector, AdaptiveTimeoutGrowsOnMistake) {
  Engine engine(EngineConfig{.seed = 6});
  auto det = std::make_shared<HeartbeatDetector>(
      0, 2,
      HeartbeatConfig{.port = 100, .initial_timeout = 2, .timeout_increment = 8});
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(det, {100});
  auto det1 = std::make_shared<HeartbeatDetector>(1, 2,
                                                  HeartbeatConfig{.port = 100});
  auto host1 = std::make_unique<ComponentHost>();
  host1->add_component(det1, {100});
  engine.add_process(std::move(host0));
  engine.add_process(std::move(host1));
  engine.set_delay_model(std::make_unique<sim::UniformDelay>(10, 30));
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.init();
  engine.run(5000);
  EXPECT_GT(det->current_timeout(1), 2u);
}

TEST(OracleEventuallyPerfect, HonorsMistakeWindowsThenConverges) {
  Engine engine(EngineConfig{.seed = 7});
  std::vector<MistakeWindow> mistakes{{0, 1, 50, 150}};
  auto oracle = std::make_shared<OracleEventuallyPerfect>(engine, 0, 2,
                                                          /*lag=*/10, mistakes);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.init();
  engine.run(80);  // inside window (time advances ~1/step)
  EXPECT_TRUE(oracle->suspects(1));
  engine.run(200);  // past window
  EXPECT_FALSE(oracle->suspects(1));
  EXPECT_EQ(oracle->convergence_bound(), 150u);
}

TEST(OracleEventuallyPerfect, SuspectsCrashedAfterLag) {
  Engine engine(EngineConfig{.seed = 8});
  auto oracle = std::make_shared<OracleEventuallyPerfect>(
      engine, 0, 2, /*lag=*/20, std::vector<MistakeWindow>{});
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.schedule_crash(1, 100);
  engine.init();
  engine.run(90);
  EXPECT_FALSE(oracle->suspects(1));
  engine.run(200);
  EXPECT_TRUE(oracle->suspects(1));
}

TEST(OraclePerfect, NeverSuspectsBeforeCrash) {
  Engine engine(EngineConfig{.seed = 9});
  auto oracle = std::make_shared<OraclePerfect>(engine, 0, 2, /*lag=*/5);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.schedule_crash(1, 500);
  engine.init();
  for (int i = 0; i < 499; ++i) {
    engine.step();
    ASSERT_FALSE(oracle->suspects(1)) << "t=" << engine.now();
  }
  engine.run(100);
  EXPECT_TRUE(oracle->suspects(1));
}

TEST(OracleTrusting, CertifiesOnlyRealCrashes) {
  Engine engine(EngineConfig{.seed = 10});
  auto oracle = std::make_shared<OracleTrusting>(engine, 0, 3, /*lag=*/10);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.add_process(std::make_unique<ComponentHost>());
  engine.schedule_crash(1, 200);
  engine.init();
  engine.run(100);
  EXPECT_FALSE(oracle->suspects(1));
  EXPECT_FALSE(oracle->certainly_crashed(1));
  EXPECT_FALSE(oracle->certainly_crashed(2));
  engine.run(500);
  EXPECT_TRUE(oracle->suspects(1));
  EXPECT_TRUE(oracle->certainly_crashed(1));
  EXPECT_FALSE(oracle->certainly_crashed(2));
}

TEST(OracleStrong, ImmuneProcessNeverSuspected) {
  Engine engine(EngineConfig{.seed = 11});
  std::vector<MistakeWindow> mistakes{{0, 2, 10, 100000}};
  auto oracle =
      std::make_shared<OracleStrong>(engine, 0, 3, /*immune=*/1, 5, mistakes);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.add_process(std::make_unique<ComponentHost>());
  engine.init();
  engine.run(1000);
  EXPECT_FALSE(oracle->suspects(1));
  EXPECT_TRUE(oracle->suspects(2));  // scripted (legal for S on non-immune)
}

TEST(DetectorHistory, GradesHeartbeatDetectorAsEventuallyPerfect) {
  HeartbeatRig rig(3, 12, /*gst=*/300, /*delta=*/3);
  DetectorHistory history(/*tag=*/0);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&](const sim::Event& e) { history.on_event(e); });
  for (ProcessId p = 0; p < 3; ++p) {
    for (ProcessId q = 0; q < 3; ++q) {
      if (p != q) history.set_initial(p, q, false);
    }
  }
  rig.engine.schedule_crash(2, 1000);
  rig.engine.init();
  rig.engine.run(30000);
  const Verdict completeness = history.strong_completeness(rig.engine);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(completeness.holds) << completeness.detail;
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
  EXPECT_GE(completeness.convergence, 1000u);
}

TEST(DetectorHistory, FlagsPermanentWrongSuspicion) {
  Engine engine(EngineConfig{.seed = 13});
  // A mistake window that never closes within the run: accuracy must fail.
  std::vector<MistakeWindow> mistakes{{0, 1, 10, 1000000}};
  auto oracle = std::make_shared<OracleEventuallyPerfect>(engine, 0, 2, 5,
                                                          mistakes);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  DetectorHistory history(0);
  engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, false);
  engine.init();
  engine.run(2000);
  EXPECT_FALSE(history.eventual_strong_accuracy(engine).holds);
}

TEST(DetectorHistory, TrustingAccuracyFlagsWrongDetrust) {
  Engine engine(EngineConfig{.seed = 14});
  // An <>P-style oracle that wrongly suspects a live process violates T's
  // trusting accuracy (after having trusted it first).
  std::vector<MistakeWindow> mistakes{{0, 1, 100, 200}};
  auto oracle = std::make_shared<OracleEventuallyPerfect>(engine, 0, 2, 5,
                                                          mistakes);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  DetectorHistory history(0);
  engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, false);
  engine.init();
  engine.run(2000);
  EXPECT_FALSE(history.trusting_accuracy(engine).holds);
}

TEST(DetectorHistory, TrustingOracleSatisfiesTrustingAccuracy) {
  Engine engine(EngineConfig{.seed = 15});
  auto oracle = std::make_shared<OracleTrusting>(engine, 0, 3, /*lag=*/10);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.add_process(std::make_unique<ComponentHost>());
  engine.schedule_crash(2, 300);
  DetectorHistory history(0);
  engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, true);  // T starts by trusting nobody? here: at 0
  history.set_initial(0, 2, true);
  engine.init();
  engine.run(5000);
  const Verdict verdict = history.trusting_accuracy(engine);
  EXPECT_TRUE(verdict.holds) << verdict.detail;
}

TEST(DetectorHistory, PerpetualWeakAccuracy) {
  Engine engine(EngineConfig{.seed = 16});
  std::vector<MistakeWindow> mistakes{{0, 2, 10, 50}};
  auto oracle =
      std::make_shared<OracleStrong>(engine, 0, 3, /*immune=*/1, 5, mistakes);
  auto host0 = std::make_unique<ComponentHost>();
  host0->add_component(oracle, {});
  engine.add_process(std::move(host0));
  engine.add_process(std::make_unique<ComponentHost>());
  engine.add_process(std::make_unique<ComponentHost>());
  DetectorHistory history(0);
  engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, false);
  history.set_initial(0, 2, false);
  engine.init();
  engine.run(500);
  EXPECT_TRUE(history.perpetual_weak_accuracy(engine).holds);
}

TEST(DetectorHistory, SuspicionEpisodeCounting) {
  DetectorHistory history(0);
  history.set_initial(0, 1, true);
  sim::Event trust{10, sim::EventKind::kDetectorChange, 0, 1, 0, 0};
  sim::Event suspect{20, sim::EventKind::kDetectorChange, 0, 1, 1, 0};
  history.on_event(trust);
  history.on_event(suspect);
  sim::Event trust2 = trust;
  trust2.time = 30;
  history.on_event(trust2);
  EXPECT_EQ(history.suspicion_episodes(0, 1), 2u);
  EXPECT_FALSE(history.currently_suspects(0, 1));
  EXPECT_EQ(history.last_flip(0, 1), 30u);
}

}  // namespace
}  // namespace wfd::detect
