// Engine tests: step semantics of the paper's model (Section 4) — atomic
// steps, reliable channels, crash faults, determinism of whole runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace wfd::sim {
namespace {

/// Sends one message to a fixed peer on every step; counts receipts.
class PingCounter final : public Process {
 public:
  explicit PingCounter(ProcessId peer) : peer_(peer) {}

  void on_message(Context&, const Message& msg) override {
    ++received_;
    last_payload_ = msg.payload;
  }
  void on_step(Context& ctx) override {
    ++steps_;
    ctx.send(peer_, /*port=*/7, Payload{1, steps_, 0, 0});
  }

  std::uint64_t received() const { return received_; }
  std::uint64_t steps() const { return steps_; }
  const Payload& last_payload() const { return last_payload_; }

 private:
  ProcessId peer_;
  std::uint64_t received_ = 0;
  std::uint64_t steps_ = 0;
  Payload last_payload_{};
};

TEST(Engine, DeliversEveryMessageToCorrectProcess) {
  Engine engine({.seed = 1});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.set_delay_model(std::make_unique<UniformDelay>(1, 10));
  engine.init();
  engine.run(2000);
  // Quiesce: stop producing by running until queues drain cannot happen here
  // (every step sends), so instead check the reliability invariant:
  // delivered + in transit == sent.
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.messages_delivered + engine.in_transit_count(),
            stats.messages_sent);
  EXPECT_GT(stats.messages_delivered, 0u);
}

TEST(Engine, RunIsDeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    Engine engine({.seed = seed});
    engine.add_process(std::make_unique<PingCounter>(1));
    engine.add_process(std::make_unique<PingCounter>(0));
    engine.set_delay_model(std::make_unique<UniformDelay>(1, 6));
    engine.init();
    engine.run(1500);
    auto& p0 = engine.process_as<PingCounter>(0);
    auto& p1 = engine.process_as<PingCounter>(1);
    return std::tuple{p0.steps(), p0.received(), p1.steps(), p1.received(),
                      engine.stats().messages_sent};
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

TEST(Engine, CrashedProcessTakesNoSteps) {
  Engine engine({.seed = 2});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.schedule_crash(0, 100);
  engine.init();
  engine.run(3000);
  auto& crashed = engine.process_as<PingCounter>(0);
  auto& survivor = engine.process_as<PingCounter>(1);
  EXPECT_FALSE(engine.is_live(0));
  EXPECT_TRUE(engine.is_live(1));
  EXPECT_LT(crashed.steps(), 110u);
  EXPECT_GT(survivor.steps(), 1000u);
}

TEST(Engine, MessagesToCrashedProcessAreDropped) {
  Engine engine({.seed = 3});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.schedule_crash(1, 50);
  engine.init();
  engine.run(2000);
  const auto& stats = engine.stats();
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_EQ(stats.messages_delivered + stats.messages_dropped +
                engine.in_transit_count(),
            stats.messages_sent);
}

TEST(Engine, AllCrashedStopsRun) {
  Engine engine({.seed = 4});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.schedule_crash(0, 10);
  engine.schedule_crash(1, 10);
  engine.init();
  const std::uint64_t executed = engine.run(1000);
  EXPECT_LT(executed, 1000u);
}

TEST(Engine, RunUntilStopsAtPredicate) {
  Engine engine({.seed = 5});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.init();
  auto& p0 = engine.process_as<PingCounter>(0);
  const bool reached =
      engine.run_until([&] { return p0.steps() >= 10; }, 10000);
  EXPECT_TRUE(reached);
  EXPECT_GE(p0.steps(), 10u);
  EXPECT_LT(p0.steps(), 30u);  // stopped promptly, not at the cap
}

TEST(Engine, RunUntilReportsFailureAtCap) {
  Engine engine({.seed = 6});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.init();
  EXPECT_FALSE(engine.run_until([] { return false; }, 100));
}

TEST(Engine, CrashEventAppearsInTrace) {
  Engine engine({.seed = 7, .trace_capacity = 100000});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.schedule_crash(1, 25);
  engine.init();
  engine.run(100);
  bool saw_crash = false;
  for (const Event& event : engine.trace().events()) {
    if (event.kind == EventKind::kCrash) {
      EXPECT_EQ(event.pid, 1u);
      EXPECT_GE(event.time, 25u);
      saw_crash = true;
    }
  }
  EXPECT_TRUE(saw_crash);
}

TEST(Engine, ObserversReceiveEvents) {
  Engine engine({.seed = 8});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  std::uint64_t sends = 0;
  engine.trace().subscribe_kinds(kind_mask(EventKind::kSend),
                                 [&](const Event&) { ++sends; });
  engine.init();
  engine.run(200);
  EXPECT_EQ(sends, engine.stats().messages_sent);
}

TEST(Engine, GroundTruthAccessors) {
  Engine engine({.seed = 9});
  engine.add_process(std::make_unique<PingCounter>(1));
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.schedule_crash(1, 40);
  engine.init();
  EXPECT_TRUE(engine.is_correct(0));
  EXPECT_FALSE(engine.is_correct(1));
  EXPECT_EQ(engine.crash_time(1), 40u);
  EXPECT_EQ(engine.crash_time(0), kNever);
  EXPECT_TRUE(engine.is_live(1));  // not yet crashed
  engine.run(100);
  EXPECT_FALSE(engine.is_live(1));
}

TEST(Engine, AddProcessAfterInitThrows) {
  Engine engine({.seed = 10});
  engine.add_process(std::make_unique<PingCounter>(0));
  engine.init();
  EXPECT_THROW(engine.add_process(std::make_unique<PingCounter>(0)),
               std::logic_error);
}

}  // namespace
}  // namespace wfd::sim
