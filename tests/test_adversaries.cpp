// Adversarial-environment coverage: the paper's model allows unbounded
// relative speeds and arbitrary (finite) stalls. The reduction and the
// dining algorithms must hold up under weighted and pausing schedulers,
// heavy-tailed delays, and combinations thereof. Plus engine edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "detect/properties.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"

namespace wfd {
namespace {

using harness::Rig;
using harness::RigOptions;

TEST(Adversaries, ReductionSurvivesUnboundedSpeedRatio) {
  // Watcher runs 50x faster than subject: the fastest witness against the
  // slowest subject is the hardest accuracy case (the witness wants to eat
  // constantly; the hand-off must still throttle it).
  Rig rig(RigOptions{.seed = 71, .n = 2});
  rig.engine.set_scheduler(std::make_unique<sim::WeightedScheduler>(
      std::vector<std::uint64_t>{50, 1}));
  reduce::WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, true);
  history.set_initial(1, 0, true);
  rig.engine.init();
  rig.engine.run(400000);
  const auto accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

TEST(Adversaries, ReductionSurvivesSubjectStall) {
  // The subject's process is frozen for a long window (a finite stall is a
  // legal asynchronous behaviour, NOT a crash): the witness may suspect it
  // meanwhile, but must re-trust after the stall — mistakes stay finite.
  Rig rig(RigOptions{.seed = 72, .n = 2});
  rig.engine.set_scheduler(std::make_unique<sim::PausingScheduler>(
      std::vector<sim::PausingScheduler::Pause>{{1, 5000, 25000}}));
  reduce::WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, true);
  history.set_initial(1, 0, true);
  rig.engine.init();
  rig.engine.run(400000);
  const auto accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
  EXPECT_FALSE(extraction.detectors[0]->suspects(1));
}

TEST(Adversaries, DiningUnderHeavyTailedDelays) {
  Rig rig(RigOptions{.seed = 73, .n = 4});
  rig.engine.set_delay_model(std::make_unique<sim::GeometricDelay>(0.05, 200));
  auto instance = rig.add_wait_free_dining(10, 1, graph::make_ring(4));
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  dining::DiningMonitor monitor(rig.engine, instance.config);
  dining::DiningMonitor::attach(rig.engine, monitor);
  rig.engine.init();
  rig.engine.run(200000);
  std::string detail;
  EXPECT_TRUE(monitor.wait_free(rig.engine.now(), 50000, &detail)) << detail;
  EXPECT_GT(monitor.total_meals(), 200u);
}

TEST(Adversaries, TargetedChannelSlowdown) {
  // The adversary slows exactly the subject->watcher direction (pings!)
  // for a long finite window; accuracy must still converge afterwards.
  Rig rig(RigOptions{.seed = 74, .n = 2});
  auto delay = std::make_unique<sim::AdversarialDelay>(
      std::make_unique<sim::UniformDelay>(1, 8));
  delay->slow_channel(1, 0, 0, 30000, 400);
  rig.engine.set_delay_model(std::move(delay));
  reduce::WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  rig.engine.init();
  rig.engine.run(400000);
  EXPECT_FALSE(extraction.detectors[0]->suspects(1));
  EXPECT_FALSE(extraction.detectors[1]->suspects(0));
}

// --- engine edge cases -------------------------------------------------------

class SelfSender final : public sim::Process {
 public:
  void on_message(sim::Context&, const sim::Message&) override { ++received_; }
  void on_step(sim::Context& ctx) override {
    ctx.send(ctx.self(), 3, sim::Payload{1, 0, 0, 0});
  }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

TEST(EngineEdge, SelfSendIsDelivered) {
  sim::Engine engine(sim::EngineConfig{.seed = 75});
  engine.add_process(std::make_unique<SelfSender>());
  engine.init();
  engine.run(500);
  EXPECT_GT(engine.process_as<SelfSender>(0).received(), 100u);
}

class BadSender final : public sim::Process {
 public:
  void on_step(sim::Context& ctx) override {
    ctx.send(99, 0, sim::Payload{});  // no such process
  }
};

TEST(EngineEdge, SendToUnknownProcessThrows) {
  sim::Engine engine(sim::EngineConfig{.seed = 76});
  engine.add_process(std::make_unique<BadSender>());
  engine.init();
  EXPECT_THROW(engine.run(10), std::out_of_range);
}

class Flooder final : public sim::Process {
 public:
  explicit Flooder(int sends) : sends_(sends) {}
  void on_step(sim::Context& ctx) override {
    for (int i = 0; i < sends_; ++i) ctx.send(0, 0, sim::Payload{});
  }

 private:
  int sends_;
};

TEST(EngineEdge, SendBoundEnforcedWhenConfigured) {
  sim::Engine engine(sim::EngineConfig{.seed = 77, .max_sends_per_step = 4});
  engine.add_process(std::make_unique<Flooder>(10));
  engine.init();
  EXPECT_THROW(engine.run(5), std::logic_error);
}

TEST(EngineEdge, SendBoundDisabledByDefault) {
  sim::Engine engine(sim::EngineConfig{.seed = 78});
  engine.add_process(std::make_unique<Flooder>(10));
  engine.init();
  EXPECT_NO_THROW(engine.run(50));
}

TEST(EngineEdge, CrashAtTimeZeroNeverSteps) {
  sim::Engine engine(sim::EngineConfig{.seed = 79});
  engine.add_process(std::make_unique<SelfSender>());
  engine.add_process(std::make_unique<SelfSender>());
  engine.schedule_crash(0, 0);
  engine.init();
  engine.run(1000);
  EXPECT_EQ(engine.process_as<SelfSender>(0).received(), 0u);
  EXPECT_GT(engine.process_as<SelfSender>(1).received(), 100u);
}

}  // namespace
}  // namespace wfd
