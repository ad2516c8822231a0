// Campaign-runner shutdown discipline: the progress monitor is a dedicated
// thread referencing the run_campaign stack frame, so its lifetime must be
// strictly inside the call on EVERY exit path — normal completion, an early
// verdict, or a throwing job. These tests race tiny campaigns against
// millisecond heartbeats (the regression surface for the monitor-join
// ordering) and pin the exception contract: a throwing `fn` aborts the
// campaign, is rethrown on the calling thread only after all threads are
// joined, and never reaches std::terminate. The OrderedStream tests pin the
// pool underneath: in-order consumption, the reorder window, the claim
// limit, and join-before-rethrow. The TSan-instrumented copy of this suite
// (campaign_progress_tsan) runs the same races under the thread sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hpp"

namespace wfd {
namespace {

TEST(CampaignProgress, FinalCallbackSeesEveryCompletion) {
  // Many tiny campaigns x a 1 ms heartbeat: the monitor wakes mid-teardown
  // constantly, which is exactly where a missing join ordering turns into a
  // use-after-return on the frame's locals.
  for (int round = 0; round < 60; ++round) {
    const std::size_t jobs = 1 + static_cast<std::size_t>(round % 7);
    std::vector<int> configs(jobs, 1);
    std::atomic<std::size_t> calls{0};
    harness::CampaignProgress last{};
    harness::ProgressOptions progress;
    progress.interval_ms = 1;
    progress.on_progress = [&](const harness::CampaignProgress& p) {
      calls.fetch_add(1);
      last = p;  // monitor thread only; joined before run_campaign returns
    };
    const std::vector<int> results = harness::run_campaign(
        configs, [](int value) { return value + 1; }, 4, progress);
    ASSERT_EQ(results.size(), jobs);
    for (const int r : results) EXPECT_EQ(r, 2);
    EXPECT_GE(calls.load(), 1u);
    EXPECT_EQ(last.completed, jobs)
        << "final progress callback must observe the last completion";
    EXPECT_EQ(last.total, jobs);
  }
}

TEST(CampaignProgress, HeartbeatsFireWhileJobsRun) {
  std::vector<int> configs(8, 0);
  std::atomic<std::size_t> calls{0};
  harness::ProgressOptions progress;
  progress.interval_ms = 1;
  progress.on_progress = [&](const harness::CampaignProgress&) {
    calls.fetch_add(1);
  };
  harness::run_campaign(
      configs,
      [](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 0;
      },
      2, progress);
  // 8 jobs x 5 ms on 2 workers ~ 20 ms of runtime: several 1 ms beats plus
  // the final one must have fired.
  EXPECT_GE(calls.load(), 3u);
}

TEST(CampaignProgress, ThrowingJobIsRethrownAfterJoin) {
  std::vector<int> configs;
  for (int i = 0; i < 64; ++i) configs.push_back(i);
  EXPECT_THROW(
      {
        harness::run_campaign(
            configs,
            [](int value) -> int {
              if (value == 13) throw std::runtime_error("boom");
              return value;
            },
            4);
      },
      std::runtime_error);
}

TEST(CampaignProgress, ThrowingJobUnderHeartbeatJoinsTheMonitor) {
  // The throwing path unwinds through the RAII guard: workers joined, then
  // the monitor — the campaign must neither terminate nor leak the thread.
  for (int round = 0; round < 40; ++round) {
    std::vector<int> configs(16, 0);
    configs[static_cast<std::size_t>(round) % configs.size()] = 1;
    std::atomic<std::size_t> calls{0};
    harness::ProgressOptions progress;
    progress.interval_ms = 1;
    progress.on_progress = [&](const harness::CampaignProgress&) {
      calls.fetch_add(1);
    };
    bool threw = false;
    try {
      harness::run_campaign(
          configs,
          [](int poison) -> int {
            if (poison != 0) throw std::runtime_error("early verdict");
            return 0;
          },
          4, progress);
    } catch (const std::runtime_error& error) {
      threw = true;
      EXPECT_EQ(std::string(error.what()), "early verdict");
    }
    EXPECT_TRUE(threw);
    EXPECT_GE(calls.load(), 1u) << "the final monitor callback still fires";
  }
}

TEST(CampaignProgress, FirstOfManyConcurrentExceptionsWins) {
  // Every job throws from every worker at once: exactly one exception may
  // escape (on the calling thread), the rest are swallowed by the abort
  // flag — nothing reaches a pool thread's boundary.
  std::vector<int> configs(32, 0);
  int caught = 0;
  try {
    harness::run_campaign(
        configs, [](int) -> int { throw std::runtime_error("everywhere"); },
        8);
  } catch (const std::runtime_error&) {
    caught = 1;
  }
  EXPECT_EQ(caught, 1);
}

TEST(CampaignProgress, AbandonedJobsKeepDefaultResults) {
  // A throw from the first job on a single thread abandons the rest: the
  // exception propagates and no partial result vector escapes.
  std::vector<int> configs = {7, 8, 9};
  try {
    harness::run_campaign(
        configs, [](int) -> int { throw std::runtime_error("first"); }, 1);
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error&) {
  }
}


// Live worker threads that have run a job: each worker marks itself in a
// thread_local whose destructor runs as the thread exits, before join()
// returns. The calling thread never marks itself.
std::atomic<int> g_marked_workers{0};
struct WorkerMark {
  WorkerMark() { g_marked_workers.fetch_add(1); }
  ~WorkerMark() { g_marked_workers.fetch_sub(1); }
};

TEST(OrderedStream, ResultsAreConsumedInIndexOrder) {
  // Later indices finish first (shorter sleeps), and the caller runs jobs
  // too; next() must still hand back 0, 1, 2, ... in order.
  constexpr std::size_t kJobs = 48;
  harness::OrderedStream<std::size_t> stream(
      [](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(100 * ((kJobs - i) % 7)));
        return i;
      },
      4, 8);
  stream.extend(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) ASSERT_EQ(stream.next(), i);
}

TEST(OrderedStream, FirstExceptionIsRethrownAfterEveryWorkerJoined) {
  for (int round = 0; round < 10; ++round) {
    const std::thread::id caller = std::this_thread::get_id();
    const std::size_t poison = 12 + static_cast<std::size_t>(round);
    harness::OrderedStream<int> stream(
        [&](std::size_t i) -> int {
          if (std::this_thread::get_id() != caller) {
            thread_local WorkerMark mark;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          if (i == poison) throw std::runtime_error("poison");
          return static_cast<int>(i);
        },
        4, 16);
    stream.extend(64);
    bool threw = false;
    try {
      for (std::size_t i = 0; i < 64; ++i) stream.next();
    } catch (const std::runtime_error& error) {
      threw = true;
      EXPECT_EQ(std::string(error.what()), "poison");
      EXPECT_EQ(g_marked_workers.load(), 0)
          << "a worker was still alive when the exception reached the caller";
    }
    EXPECT_TRUE(threw);
  }
}

TEST(OrderedStream, NeverMoreThanWindowProducedAhead) {
  // A slow consumer and fast jobs: workers run ahead until the window
  // stops them. Only the caller advances consumption, so right after
  // next() returns index k no index at or past k + 1 + window may have
  // started.
  constexpr std::size_t kWindow = 5;
  constexpr std::size_t kJobs = 60;
  std::atomic<std::size_t> started{0};
  harness::OrderedStream<std::size_t> stream(
      [&](std::size_t i) {
        started.fetch_add(1);
        return i;
      },
      4, kWindow);
  stream.extend(kJobs);
  std::size_t widest = 0;
  for (std::size_t k = 0; k < kJobs; ++k) {
    ASSERT_EQ(stream.next(), k);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::size_t ahead = started.load() - (k + 1);
    EXPECT_LE(ahead, kWindow) << "after consuming index " << k;
    widest = std::max(widest, ahead);
  }
  EXPECT_GT(widest, 0u) << "workers never ran ahead of the consumer";
}

TEST(OrderedStream, NothingPastTheLimitIsClaimed) {
  std::atomic<std::size_t> started{0};
  harness::OrderedStream<std::size_t> stream(
      [&](std::size_t i) {
        started.fetch_add(1);
        return i;
      },
      4, 64);
  stream.extend(5);
  for (std::size_t i = 0; i < 5; ++i) ASSERT_EQ(stream.next(), i);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(started.load(), 5u);
  stream.extend(9);
  for (std::size_t i = 5; i < 9; ++i) ASSERT_EQ(stream.next(), i);
  EXPECT_EQ(started.load(), 9u);
  EXPECT_THROW(stream.next(), std::logic_error);
}

}  // namespace
}  // namespace wfd
