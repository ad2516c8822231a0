// Scheduler tests: fairness (every live process steps infinitely often),
// weighting, pausing windows, and crash handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace wfd::sim {
namespace {

class StepCounter final : public Process {
 public:
  void on_step(Context&) override { ++steps_; }
  std::uint64_t steps() const { return steps_; }

 private:
  std::uint64_t steps_ = 0;
};

std::vector<std::uint64_t> run_and_count(std::unique_ptr<Scheduler> scheduler,
                                         std::size_t n, std::uint64_t steps,
                                         std::vector<std::pair<ProcessId, Time>>
                                             crashes = {}) {
  Engine engine({.seed = 77});
  for (std::size_t i = 0; i < n; ++i) {
    engine.add_process(std::make_unique<StepCounter>());
  }
  engine.set_scheduler(std::move(scheduler));
  for (auto [pid, at] : crashes) engine.schedule_crash(pid, at);
  engine.init();
  engine.run(steps);
  std::vector<std::uint64_t> counts;
  for (ProcessId pid = 0; pid < n; ++pid) {
    counts.push_back(engine.process_as<StepCounter>(pid).steps());
  }
  return counts;
}

TEST(Scheduler, RoundRobinIsExactlyFair) {
  auto counts = run_and_count(std::make_unique<RoundRobinScheduler>(), 4, 4000);
  for (auto c : counts) EXPECT_EQ(c, 1000u);
}

TEST(Scheduler, RoundRobinSkipsCrashed) {
  auto counts = run_and_count(std::make_unique<RoundRobinScheduler>(), 3, 3000,
                              {{1, 10}});
  EXPECT_LT(counts[1], 10u);
  EXPECT_GT(counts[0], 1400u);
  EXPECT_GT(counts[2], 1400u);
}

TEST(Scheduler, RandomIsApproximatelyFair) {
  auto counts = run_and_count(std::make_unique<RandomScheduler>(), 5, 50000);
  for (auto c : counts) {
    EXPECT_GT(c, 8000u);
    EXPECT_LT(c, 12000u);
  }
}

TEST(Scheduler, RandomNeverSchedulesCrashed) {
  auto counts = run_and_count(std::make_unique<RandomScheduler>(), 3, 30000,
                              {{0, 100}});
  EXPECT_LT(counts[0], 100u);
  EXPECT_GT(counts[1], 10000u);
  EXPECT_GT(counts[2], 10000u);
}

TEST(Scheduler, WeightedBiasesSpeeds) {
  auto counts = run_and_count(
      std::make_unique<WeightedScheduler>(std::vector<std::uint64_t>{1, 9}), 2,
      50000);
  const double ratio =
      static_cast<double>(counts[1]) / static_cast<double>(counts[0]);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(Scheduler, WeightedStillFairToSlowProcess) {
  auto counts = run_and_count(
      std::make_unique<WeightedScheduler>(std::vector<std::uint64_t>{1, 1000}),
      2, 100000);
  EXPECT_GT(counts[0], 0u) << "slow processes must still step";
}

TEST(Scheduler, RoundRobinCoversEveryLiveProcessWithinOneRoundOfACrash) {
  // Regression: the pre-overhaul round-robin rescanned `live` with a wrap
  // heuristic that could starve a live process for many rounds right after a
  // crash shrank the list. The cursor version must schedule every live
  // process exactly once in ANY window of live-count consecutive steps —
  // including the windows straddling and following the crash.
  constexpr std::uint32_t kN = 8;
  constexpr Time kCrashAt = 500;
  Engine engine({.seed = 9});
  for (std::uint32_t i = 0; i < kN; ++i) {
    engine.add_process(std::make_unique<StepCounter>());
  }
  engine.set_scheduler(std::make_unique<RoundRobinScheduler>());
  engine.schedule_crash(3, kCrashAt);

  std::vector<ProcessId> stepped_after_crash;
  engine.trace().subscribe_kinds(kind_mask(EventKind::kStep),
                                 [&](const Event& e) {
                                   if (e.time >= kCrashAt) {
                                     stepped_after_crash.push_back(e.pid);
                                   }
                                 });
  engine.init();
  engine.run(1000);

  ASSERT_GE(stepped_after_crash.size(), 3 * (kN - 1));
  const std::vector<ProcessId> live{0, 1, 2, 4, 5, 6, 7};
  for (std::size_t start = 0; start + (kN - 1) <= 3 * (kN - 1); ++start) {
    std::vector<ProcessId> window(
        stepped_after_crash.begin() + static_cast<std::ptrdiff_t>(start),
        stepped_after_crash.begin() + static_cast<std::ptrdiff_t>(start) +
            (kN - 1));
    std::sort(window.begin(), window.end());
    EXPECT_EQ(window, live) << "window at offset " << start
                            << " did not cover every live process";
  }
}

TEST(Scheduler, PausingStallsWindowOnly) {
  std::vector<PausingScheduler::Pause> pauses{{0, 100, 2000}};
  Engine engine({.seed = 5});
  engine.add_process(std::make_unique<StepCounter>());
  engine.add_process(std::make_unique<StepCounter>());
  engine.set_scheduler(std::make_unique<PausingScheduler>(pauses));
  engine.init();
  engine.run(99);
  const auto before = engine.process_as<StepCounter>(0).steps();
  engine.run(1800);  // inside the pause window
  EXPECT_EQ(engine.process_as<StepCounter>(0).steps(), before);
  engine.run(4000);  // past it
  EXPECT_GT(engine.process_as<StepCounter>(0).steps(), before);
}

}  // namespace
}  // namespace wfd::sim
