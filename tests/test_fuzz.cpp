// The fuzzer's own contracts: sampling and runs are pure functions of their
// seeds, normalize() establishes the documented invariants for every input,
// configs and repro cases survive a JSON round trip bit-exactly, the
// shrinker preserves the failing oracle while only ever simplifying, a
// campaign's outcome does not depend on the worker thread count, and an
// abort at a batch boundary stops the campaign with no shrink started and
// no worker left running. The FuzzCampaign suite also runs under TSan
// (fuzz_campaign_tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "util/json.hpp"

namespace wfd::fuzz {
namespace {

// Threads of this process, or -1 where /proc/self/task is unavailable.
int live_threads() {
  std::error_code ec;
  int count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++count;
  }
  return ec ? -1 : count;
}

FuzzConfig broken_fork_based_config() {
  FuzzConfig config;
  config.seed = 7;
  config.target = TargetKind::kBrokenForkBased;
  config.n = 3;
  config.steps = 40000;
  config.graph = GraphKind::kClique;
  config.scheduler = SchedulerKind::kRoundRobin;
  config.delay = DelayKind::kFixed;
  config.delay_min = 2;
  config.delay_max = 2;
  return config;
}

TEST(FuzzSampling, PureFunctionOfSeedAndIndex) {
  const std::vector<TargetKind> pool = legal_targets();
  for (std::uint64_t index : {0ull, 1ull, 17ull}) {
    const FuzzConfig a = sample_config(42, index, pool);
    const FuzzConfig b = sample_config(42, index, pool);
    EXPECT_EQ(config_to_json(a), config_to_json(b));
  }
  // Different indices (and different master seeds) must diverge somewhere.
  EXPECT_NE(config_to_json(sample_config(42, 0, pool)),
            config_to_json(sample_config(42, 1, pool)));
  EXPECT_NE(config_to_json(sample_config(42, 0, pool)),
            config_to_json(sample_config(43, 0, pool)));
}

TEST(FuzzSampling, DrawsOnlyFromThePool) {
  const std::vector<TargetKind> pool = {TargetKind::kScriptedDining};
  for (std::uint64_t index = 0; index < 32; ++index) {
    EXPECT_EQ(sample_config(9, index, pool).target,
              TargetKind::kScriptedDining);
  }
}

TEST(FuzzNormalize, EstablishesDocumentedInvariants) {
  FuzzConfig wild;
  wild.target = TargetKind::kScriptedDining;
  wild.n = 40;
  wild.steps = 10;
  wild.delay_min = 90;
  wild.delay_max = 3;
  wild.scheduler = SchedulerKind::kRoundRobin;
  wild.pauses.push_back({1, 100, 50});             // inverted window
  wild.crashes.push_back({0, 10});                 // manager host: dropped
  wild.crashes.push_back({99, 10});                // no such process
  wild.crashes.push_back({1, 5000000});            // clamped into first half
  wild.mistakes.push_back({2, 2, 0, 100});         // watcher == subject
  const FuzzConfig config = normalize(wild);
  EXPECT_LE(config.n, 8u);
  EXPECT_GE(config.n, 2u);
  EXPECT_GE(config.delay_max, config.delay_min);
  EXPECT_TRUE(config.pauses.empty());  // non-pausing scheduler
  ASSERT_EQ(config.crashes.size(), 1u);
  EXPECT_EQ(config.crashes[0].pid, 1u);
  EXPECT_LE(config.crashes[0].at, config.steps / 2);
  EXPECT_TRUE(config.mistakes.empty());
  // Runway: the run must extend past the convergence deadline.
  EXPECT_GT(config.steps, convergence_deadline(config));
  // Normalize must be idempotent, or replay-after-normalize would drift.
  EXPECT_EQ(config_to_json(normalize(config)), config_to_json(config));
}

TEST(FuzzNormalize, PairGraphRequiresTwoProcesses) {
  FuzzConfig config;
  config.target = TargetKind::kDining;
  config.n = 5;
  config.graph = GraphKind::kPair;
  EXPECT_EQ(normalize(config).graph, GraphKind::kPath);
  config.n = 2;
  EXPECT_EQ(normalize(config).graph, GraphKind::kPair);
}

TEST(FuzzNormalize, BrokenTargetsForceTheirDefect) {
  FuzzConfig config;
  config.target = TargetKind::kBrokenSingleInstance;
  config.member0_burst = 0;
  config.exclusive_from = 0;
  const FuzzConfig single = normalize(config);
  EXPECT_EQ(single.n, 2u);
  EXPECT_EQ(single.semantics, dining::BoxSemantics::kLockout);
  EXPECT_GE(single.member0_burst, 2u);
  EXPECT_GE(single.exclusive_from, 1u);
  EXPECT_TRUE(single.crashes.empty());

  config = FuzzConfig{};
  config.target = TargetKind::kBrokenForkBased;
  const FuzzConfig fork = normalize(config);
  EXPECT_EQ(fork.semantics, dining::BoxSemantics::kForkBased);
  EXPECT_GT(fork.exclusive_from, 0u);
  EXPECT_GE(fork.never_exit_member, 0);
  EXPECT_LT(fork.never_exit_member, static_cast<std::int32_t>(fork.n));
}

TEST(FuzzConfigJson, RoundTripsBitExactly) {
  FuzzConfig config = sample_config(123, 5, legal_targets());
  config.crashes.push_back({1, 777});
  config.mistakes.push_back({0, 1, 10, 500});
  const std::string text = config_to_json(config);
  FuzzConfig parsed;
  std::string error;
  ASSERT_TRUE(config_from_json(text, &parsed, &error)) << error;
  EXPECT_EQ(config_to_json(parsed), text);
}

TEST(FuzzReproJson, RoundTripsExpectedOutcome) {
  ReproCase repro;
  repro.config = normalize(broken_fork_based_config());
  repro.oracle = "wx_safety";
  repro.at = 31337;
  repro.detail = "detail text with \"quotes\" and \\ backslash";
  const std::string text = repro_to_json(repro);
  ReproCase parsed;
  std::string error;
  ASSERT_TRUE(repro_from_json(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.oracle, repro.oracle);
  EXPECT_EQ(parsed.at, repro.at);
  EXPECT_EQ(parsed.detail, repro.detail);
  EXPECT_EQ(config_to_json(parsed.config), config_to_json(repro.config));
}

TEST(FuzzJson, RejectsMalformedInput) {
  util::Json value;
  std::string error;
  EXPECT_FALSE(util::Json::parse("{\"a\": }", &value, &error));
  EXPECT_FALSE(util::Json::parse("{\"a\": 1} trailing", &value, &error));
  EXPECT_FALSE(util::Json::parse("", &value, &error));
  FuzzConfig config;
  EXPECT_FALSE(config_from_json("[1, 2, 3]", &config, &error));
}

// Regression: parse_value recursed with no depth limit, so a hostile
// hand-edited .repro of 100k open brackets overflowed the stack. Deep
// nesting must come back as a parse error, never a crash.
TEST(FuzzJson, HostileNestingIsAnErrorNotACrash) {
  util::Json value;
  std::string error;
  EXPECT_FALSE(util::Json::parse(std::string(100000, '['), &value, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  // Same through objects.
  std::string hostile;
  for (int i = 0; i < 100000; ++i) hostile += "{\"k\":";
  EXPECT_FALSE(util::Json::parse(hostile, &value, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(FuzzJson, ReasonableNestingStaysAccepted) {
  std::string text(32, '[');
  text += "1";
  text += std::string(32, ']');
  util::Json value;
  std::string error;
  EXPECT_TRUE(util::Json::parse(text, &value, &error)) << error;
}

// Regression: duplicate object keys were silently appended, so find()
// (first match) returned the FIRST value while a writer round trip kept
// both. Last wins now, in place, with an optional warning per duplicate.
TEST(FuzzJson, DuplicateKeysLastWinsWithWarning) {
  util::Json value;
  std::string error;
  std::vector<std::string> warnings;
  ASSERT_TRUE(util::Json::parse(R"({"a":1,"b":2,"a":3})", &value, &error,
                          &warnings));
  ASSERT_EQ(value.members.size(), 2u);
  EXPECT_EQ(value.find("a")->as_u64(), 3u);
  EXPECT_EQ(value.find("b")->as_u64(), 2u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("duplicate key \"a\""), std::string::npos);
  // Without a warnings sink the parse still succeeds with last-wins.
  util::Json quiet;
  ASSERT_TRUE(util::Json::parse(R"({"a":1,"a":2})", &quiet, &error));
  EXPECT_EQ(quiet.find("a")->as_u64(), 2u);
}

TEST(FuzzRun, DeterministicAcrossInvocations) {
  const FuzzConfig config = sample_config(5, 2, legal_targets());
  const RunResult a = run_config(config);
  const RunResult b = run_config(config);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(FuzzShrink, PreservesOracleAndOnlySimplifies) {
  const FuzzConfig failing = normalize(broken_fork_based_config());
  const RunResult before = run_config(failing);
  ASSERT_FALSE(before.ok());
  const std::string oracle = before.primary()->oracle;

  const ShrinkOutcome outcome = shrink_case(failing, 80);
  EXPECT_EQ(outcome.repro.oracle, oracle);
  const FuzzConfig& shrunk = outcome.repro.config;
  EXPECT_LE(shrunk.n, failing.n);
  EXPECT_LE(shrunk.steps, failing.steps);
  EXPECT_LE(shrunk.crashes.size(), failing.crashes.size());
  // The recorded outcome is what the shrunk config actually produces.
  std::string why;
  EXPECT_TRUE(replay_case(outcome.repro, &why)) << why;
}

TEST(FuzzReplay, DetectsOutcomeDrift) {
  ReproCase repro = shrink_case(normalize(broken_fork_based_config()), 40).repro;
  std::string why;
  ASSERT_TRUE(replay_case(repro, &why)) << why;
  repro.at += 1;  // stored outcome no longer matches the run
  EXPECT_FALSE(replay_case(repro, &why));
  EXPECT_FALSE(why.empty());
}

TEST(FuzzCampaign, ThreadCountDoesNotChangeTheOutcome) {
  // Three batches at threads = 4 (batch = 16 runs) over the `all` pool with
  // shrinking on: workers run ahead across batch boundaries and the failure
  // shapes shrink concurrently, so an ordering bug in either would show as a
  // stats, repro or narration difference against the sequential campaign.
  CampaignOptions options;
  options.master_seed = 11;
  options.runs = 48;
  ASSERT_TRUE(resolve_target_pool({"all"}, &options.targets, nullptr));
  options.max_shrink_attempts = 20;
  options.threads = 1;
  // The narration names each first-of-its-shape failure by its run index,
  // so it differs as soon as one result is accounted out of index order.
  const auto campaign = [&options](std::vector<std::string>* lines) {
    return run_fuzz_campaign(
        options, [lines](const std::string& line) { lines->push_back(line); });
  };
  std::vector<std::string> sequential_lines;
  const CampaignResult sequential = campaign(&sequential_lines);
  ASSERT_EQ(sequential.stats.executed, 48u);
  ASSERT_GE(sequential.repros.size(), 2u)
      << "needs two failure shapes to shrink concurrently";
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    std::vector<std::string> parallel_lines;
    const CampaignResult parallel = campaign(&parallel_lines);
    EXPECT_EQ(sequential_lines, parallel_lines);
    const CampaignStats& a = sequential.stats;
    const CampaignStats& b = parallel.stats;
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.failing, b.failing);
    EXPECT_EQ(a.corpus_size, b.corpus_size);
    EXPECT_EQ(a.novel, b.novel);
    EXPECT_EQ(a.shrink_runs, b.shrink_runs);
    EXPECT_EQ(a.total_steps, b.total_steps);
    EXPECT_EQ(a.total_messages, b.total_messages);
    EXPECT_EQ(a.total_meals, b.total_meals);
    EXPECT_EQ(a.oracle_failures, b.oracle_failures);
    ASSERT_EQ(sequential.repros.size(), parallel.repros.size());
    for (std::size_t k = 0; k < sequential.repros.size(); ++k) {
      const ReproCase& x = sequential.repros[k];
      const ReproCase& y = parallel.repros[k];
      EXPECT_EQ(config_to_json(x.config), config_to_json(y.config)) << k;
      EXPECT_EQ(x.oracle, y.oracle) << k;
      EXPECT_EQ(x.at, y.at) << k;
      EXPECT_EQ(x.detail, y.detail) << k;
    }
  }
}

TEST(FuzzCampaign, AbortAtTheFirstBatchBoundaryStopsCleanly) {
  const int baseline = live_threads();
  std::atomic<bool> abort{false};
  std::vector<std::uint64_t> reported;
  int during = -1;
  CampaignOptions options;
  options.master_seed = 3;
  options.runs = 400;
  options.threads = 4;  // batch = 16 runs
  options.targets = {TargetKind::kDining, TargetKind::kBrokenSingleInstance,
                     TargetKind::kBrokenForkBased};
  options.abort = &abort;
  options.on_progress = [&](std::uint64_t completed, std::uint64_t total,
                            std::uint64_t) {
    EXPECT_EQ(total, 400u);
    if (reported.empty()) during = live_threads();
    reported.push_back(completed);
    abort.store(true, std::memory_order_release);
  };
  const CampaignResult result = run_fuzz_campaign(options);

  EXPECT_EQ(result.stats.executed, 16u);
  ASSERT_GT(result.stats.failing, 0u) << "the batch must hold a failure";
  EXPECT_EQ(result.stats.shrink_runs, 0u) << "no shrink may start";
  EXPECT_TRUE(result.repros.empty());
  ASSERT_FALSE(reported.empty());
  for (std::size_t k = 0; k < reported.size(); ++k) {
    EXPECT_EQ(reported[k] % 16, 0u) << k;
    if (k > 0) {
      EXPECT_GE(reported[k], reported[k - 1]) << k;
    }
  }
  EXPECT_EQ(reported.back(), result.stats.executed);

  if (baseline < 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  EXPECT_GT(during, baseline) << "workers run while the campaign does";
  // A joined thread can stay listed for a moment after join() returns.
  int after = live_threads();
  for (int wait = 0; wait < 200 && after != baseline; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = live_threads();
  }
  EXPECT_EQ(after, baseline) << "a worker thread outlived the campaign";
}

TEST(FuzzShrink, AlreadyMinimalCaseComesBackUnchanged) {
  // Shrink to a fixed point, then shrink the fixed point again: a 1-minimal
  // case must survive a second pass bit-identically (ddmin is idempotent).
  const ShrinkOutcome first =
      shrink_case(normalize(broken_fork_based_config()), 120);
  ASSERT_TRUE(first.reproduced);
  const ShrinkOutcome second = shrink_case(first.repro.config, 120);
  ASSERT_TRUE(second.reproduced);
  EXPECT_EQ(config_to_json(second.repro.config),
            config_to_json(first.repro.config));
  EXPECT_EQ(second.repro.oracle, first.repro.oracle);
  EXPECT_EQ(second.accepted, 0u);  // nothing simpler still fails
}

TEST(FuzzShrink, NonReproducingInputFailsLoudly) {
  // A clean config handed to the shrinker must not delta-debug noise into a
  // bogus reproducer: reproduced == false, oracle "none".
  FuzzConfig clean = sample_config(5, 2, {TargetKind::kDining});
  const RunResult check = run_config(clean);
  ASSERT_TRUE(check.ok()) << check.primary()->oracle;
  const ShrinkOutcome outcome = shrink_case(clean, 40);
  EXPECT_FALSE(outcome.reproduced);
  EXPECT_EQ(outcome.repro.oracle, "none");
  EXPECT_EQ(outcome.accepted, 0u);
}

TEST(FuzzShrink, ReproJsonKeepsSchemaVersion) {
  const ShrinkOutcome outcome =
      shrink_case(normalize(broken_fork_based_config()), 40);
  ASSERT_TRUE(outcome.reproduced);
  const std::string text = repro_to_json(outcome.repro);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  ReproCase reloaded;
  std::string error;
  ASSERT_TRUE(repro_from_json(text, &reloaded, &error)) << error;
  EXPECT_EQ(repro_to_json(reloaded), text);
}

TEST(FuzzReplayPath, DirectoryIsScannedRecursivelyAndFullyReported) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "wfd_fuzz_replay_path_test";
  fs::remove_all(dir);
  fs::create_directories(dir / "nested");

  const ShrinkOutcome good =
      shrink_case(normalize(broken_fork_based_config()), 40);
  ASSERT_TRUE(good.reproduced);
  ReproCase drifted = good.repro;
  drifted.at += 1;  // stored outcome no longer matches the run
  ASSERT_TRUE(save_repro_file((dir / "a_good.repro").string(), good.repro));
  ASSERT_TRUE(
      save_repro_file((dir / "nested" / "drifted.repro").string(), drifted));
  {
    std::ofstream garbage(dir / "nested" / "garbage.repro");
    garbage << "{not json";
  }

  const ReplayReport report = replay_path(dir.string());
  // All three files found (recursion), all three reported (no early stop).
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.passed, 1u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_FALSE(report.all_ok());
  // Sorted-path order: a_good first, then the nested pair.
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_FALSE(report.items[1].why.empty());
  EXPECT_FALSE(report.items[2].ok);
  fs::remove_all(dir);
}

TEST(FuzzReplayPath, EmptyDirectoryIsAFailingReport) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "wfd_fuzz_replay_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ReplayReport report = replay_path(dir.string());
  EXPECT_TRUE(report.items.empty());
  EXPECT_FALSE(report.all_ok());
  fs::remove_all(dir);
}

TEST(FuzzCampaign, BrokenPoolYieldsAShrunkReproducer) {
  CampaignOptions options;
  options.master_seed = 1;
  options.runs = 2;
  options.targets = {TargetKind::kBrokenForkBased};
  options.max_shrink_attempts = 60;
  const CampaignResult campaign = run_fuzz_campaign(options);
  EXPECT_EQ(campaign.stats.failing, 2u);
  ASSERT_FALSE(campaign.repros.empty());
  EXPECT_EQ(campaign.repros[0].oracle, "wx_safety");
  std::string why;
  EXPECT_TRUE(replay_case(campaign.repros[0], &why)) << why;
}

}  // namespace
}  // namespace wfd::fuzz
