// Engine-level pins for the transit store: STORAGE IS NEVER OBSERVABLE.
//
// The shared SoA transit store (sim/soa_transit.hpp) replaced, in turn, a
// per-destination binary heap and a per-destination calendar queue. Every
// replacement had to keep the exact (deliver_at, seq) delivery order and
// the RNG draw sequence, so each run must still produce the outputs the
// older stores produced:
//
//   * the golden fingerprints captured from the original heap engine
//     (the same constants test_determinism.cpp pins);
//   * per-run outputs recorded from the calendar-queue engine just before it
//     was deleted — signature, oracle failures, run stats, end time, and an
//     FNV hash of the full captured trace — over the whole conformance-
//     vector corpus, two adversary regimes with retransmission, and a
//     gossip workload under every scheduler with and without crashes.
//
// The recorded tables are literal, so a change that alters any delivery
// order, any draw, or any oracle verdict fails here with the first field
// that moved.
//
// The engine-contract tests at the end pin that the `engine` oracle fires
// when a scheduler steps a crashed process, and that an uncaptured graded
// run leaves every per-step and per-message event kind disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dining/client.hpp"
#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "scenario/scenario.hpp"

namespace wfd::sim {
namespace {

/// FNV-1a over an event stream; order- and content-sensitive.
struct TraceHasher {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t events = 0;

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void on_event(const Event& e) {
    mix(e.time);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.pid);
    mix(e.a);
    mix(e.b);
    mix(e.c);
    ++events;
  }
};

// --- graded runs: recorded outputs of the calendar-queue engine ------------

struct FailureGolden {
  const char* oracle;
  Time at;
};

/// The RunStats fields the calendar-vs-SoA differential compared.
struct StatsGolden {
  std::uint64_t steps, sent, delivered, dropped, lost, duplicated,
      retransmitted, in_transit, meals;

  friend bool operator==(const StatsGolden&, const StatsGolden&) = default;
};

struct RunGolden {
  const char* label;
  std::uint64_t signature;
  std::vector<FailureGolden> failures;
  StatsGolden stats;
  Time end_time;
  std::uint64_t events;
  std::uint64_t trace_hash;
};

/// One entry per tests/vectors/*.scenario.json, in file-name order.
const std::vector<RunGolden>& corpus_goldens() {
  static const std::vector<RunGolden> goldens = {
      {"v01_exclusive_clean.scenario.json", 7323368189752428597ull, {},
       {60000, 9751, 9750, 0, 0, 0, 0, 1, 0},
       60000, 89252, 4553536281350077569ull},
      {"v02_mistake_prefix.scenario.json", 9760440174331375582ull, {},
       {60000, 9938, 9938, 0, 0, 0, 0, 0, 0},
       60000, 90071, 10572609871429292281ull},
      {"v03_crash_regime.scenario.json", 1369493705387869789ull, {},
       {60000, 9758, 9753, 3, 0, 0, 0, 2, 0},
       60000, 90453, 1755379050851542256ull},
      {"v04_broken_single_instance.scenario.json", 6672652495924741680ull,
       {{"detector_accuracy", 49883}},
       {50000, 7569, 7569, 0, 0, 0, 0, 0, 0},
       50000, 73351, 7608834242483937238ull},
      {"v05_broken_fork_based.scenario.json", 3699497974898882589ull,
       {{"wx_safety", 39976}},
       {40000, 4969, 4968, 0, 0, 0, 0, 1, 1656},
       40000, 56566, 8667023430374321679ull},
      {"v06_composed_pairs.scenario.json", 15069242850481240ull, {},
       {60000, 10116, 10115, 0, 0, 0, 0, 1, 0},
       60000, 93714, 3937675735438816328ull},
      {"v07_dining_ring.scenario.json", 7080192192135770241ull, {},
       {60000, 5687, 5686, 0, 0, 0, 0, 1, 1416},
       60000, 77058, 5637319056732322977ull},
      {"v08_dining_partial_synchrony.scenario.json", 4108423004453429634ull,
       {},
       {60000, 10808, 10808, 0, 0, 0, 0, 0, 1800},
       60000, 88830, 13351985141762624213ull},
      {"v09_pausing_mistakes.scenario.json", 1939926714253411186ull, {},
       {60000, 9137, 9137, 0, 0, 0, 0, 0, 2280},
       60000, 87402, 3653235703289971354ull},
      {"v10_duplication_benign.scenario.json", 653344607480438495ull, {},
       {60000, 9243, 11074, 0, 0, 1831, 0, 0, 2308},
       60000, 89561, 15406932719894032229ull},
      {"v11_permanent_partition.scenario.json", 11111939504788922195ull,
       {{"wait_free", 60000}},
       {60000, 202, 198, 4, 4, 0, 0, 0, 49},
       60000, 60616, 9933769374385542940ull},
      {"v12_heavy_loss_extraction.scenario.json", 13301805661473228098ull,
       {{"detector_accuracy", 0}},
       {60000, 10, 6, 4, 4, 0, 0, 0, 0},
       60000, 60030, 7516143749622318979ull},
      {"v13_transient_partition_still_fatal.scenario.json",
       6515870864407015534ull,
       {{"wait_free", 60000}},
       {60000, 72, 68, 4, 4, 0, 0, 0, 15},
       60000, 60220, 3016627830825913177ull},
      {"v14_transient_partition_healed.scenario.json", 3351654544285605276ull,
       {},
       {60000, 7078, 7076, 0, 0, 0, 62, 2, 1765},
       60000, 81229, 13792408660966625590ull},
  };
  return goldens;
}

void expect_matches_golden(const fuzz::FuzzConfig& config,
                           const RunGolden& golden) {
  const std::string label = golden.label;
  fuzz::RunCapture capture;
  const fuzz::RunResult run = fuzz::run_config(config, capture);

  EXPECT_EQ(run.signature, golden.signature) << label;
  ASSERT_EQ(run.failures.size(), golden.failures.size()) << label;
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    EXPECT_EQ(run.failures[i].oracle, golden.failures[i].oracle) << label;
    EXPECT_EQ(run.failures[i].at, golden.failures[i].at) << label;
  }
  const fuzz::RunStats& s = run.stats;
  const StatsGolden got{s.steps,
                        s.messages_sent,
                        s.messages_delivered,
                        s.messages_dropped,
                        s.messages_lost,
                        s.messages_duplicated,
                        s.messages_retransmitted,
                        s.in_transit,
                        s.total_meals};
  EXPECT_EQ(got, golden.stats) << label;
  EXPECT_EQ(capture.end_time, golden.end_time) << label;
  EXPECT_EQ(capture.truncated, 0u) << label;
  TraceHasher hasher;
  for (const Event& event : capture.events) hasher.on_event(event);
  EXPECT_EQ(hasher.events, golden.events) << label;
  EXPECT_EQ(hasher.hash, golden.trace_hash) << label;
}

TEST(SoaEngineDifferential, WholeVectorCorpusIsBitIdentical) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(WFD_VECTOR_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".scenario.json") != std::string::npos) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  const std::vector<RunGolden>& goldens = corpus_goldens();
  // A new vector needs its own recorded row; a missing one is a lost pin.
  ASSERT_EQ(files.size(), goldens.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_EQ(fs::path(files[i]).filename().string(), goldens[i].label);
    scenario::Scenario scenario;
    std::string error;
    ASSERT_TRUE(scenario::load_scenario_file(files[i], &scenario, &error))
        << files[i] << ": " << error;
    expect_matches_golden(scenario.config, goldens[i]);
  }
}

TEST(SoaEngineDifferential, AdversaryRegimesWithRetransmitAreBitIdentical) {
  // Regimes past the corpus: loss + duplication + partitions + retransmit
  // all at once, both dining and extraction targets.
  const RunGolden goldens[] = {
      {"dining+adversary", 8103682764340741797ull, {{"wait_free", 31820}},
       {31820, 43, 40, 4, 4, 1, 37, 0, 7},
       31820, 31965, 7543684248187481880ull},
      {"extraction+adversary", 10942747319085140120ull, {},
       {33300, 1344, 1397, 8, 8, 61, 173, 0, 0},
       33300, 37825, 13532982038607939834ull},
  };
  for (const bool extraction : {false, true}) {
    fuzz::FuzzConfig config;
    config.seed = 99;
    config.n = 5;
    config.steps = 30000;
    config.target =
        extraction ? fuzz::TargetKind::kExtraction : fuzz::TargetKind::kDining;
    config.scheduler = fuzz::SchedulerKind::kRandom;
    config.loss_rate = 0.08;
    config.dup_rate = 0.05;
    config.dup_spread = 16;
    config.partitions.push_back({300, 900, {0, 1}});
    config.retransmit_every = 32;
    config.retransmit_max = 8;
    config.crashes.push_back({4, 4000});
    expect_matches_golden(fuzz::normalize(config), goldens[extraction ? 1 : 0]);
  }
}

// --- golden fingerprints (mirrors test_determinism.cpp) ---------------------

struct Fingerprint {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t stats_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::uint64_t hash_stats(const Engine& engine) {
  TraceHasher h;
  const EngineStats& s = engine.stats();
  h.mix(s.steps);
  h.mix(s.messages_sent);
  h.mix(s.messages_delivered);
  h.mix(s.messages_dropped);
  h.mix(s.crashes);
  h.mix(engine.now());
  return h.hash;
}

Fingerprint run_reduction(std::uint64_t seed) {
  harness::Rig rig(
      harness::RigOptions{.seed = seed, .n = 3, .detector_lag = 25});
  reduce::WaitFreeBoxFactory factory(
      [&rig](ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory,
                                                  reduce::ExtractionOptions{});
  TraceHasher hasher;
  rig.engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.schedule_crash(2, 5000);
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

Fingerprint run_hygienic(std::uint64_t seed) {
  harness::Rig rig(harness::RigOptions{.seed = seed, .n = 5});
  auto instance = rig.add_hygienic_dining(10, 1, graph::make_ring(5));
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  TraceHasher hasher;
  rig.engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

// The same constants test_determinism.cpp pins — captured from the ORIGINAL
// heap-based engine, two transit overhauls ago.
constexpr Fingerprint kGoldenReduction{3659772812120896702ull, 28985,
                                       13410170420198056445ull};
constexpr Fingerprint kGoldenHygienic{2405967122402567080ull, 25494,
                                      6419710400179810867ull};

TEST(SoaEngineGolden, ReductionFingerprintSurvivesAThirdTransitOverhaul) {
  EXPECT_EQ(run_reduction(22), kGoldenReduction);
}

TEST(SoaEngineGolden, HygienicFingerprintSurvivesAThirdTransitOverhaul) {
  EXPECT_EQ(run_hygienic(3), kGoldenHygienic);
}

// --- scheduler sweep --------------------------------------------------------

class RingGossip final : public Process {
 public:
  explicit RingGossip(std::uint32_t n) : n_(n) {}
  void on_step(Context& ctx) override {
    ++ticks_;
    ctx.send((ctx.self() + 1) % n_, 1, Payload{1, ticks_, 0, 0});
  }

 private:
  std::uint32_t n_;
  std::uint64_t ticks_ = 0;
};

Fingerprint run_gossip(int scheduler, std::uint64_t seed, bool with_crashes) {
  constexpr std::uint32_t n = 6;
  Engine engine({.seed = seed});
  for (std::uint32_t p = 0; p < n; ++p) {
    engine.add_process(std::make_unique<RingGossip>(n));
  }
  switch (scheduler) {
    case 0:
      engine.set_scheduler(std::make_unique<RoundRobinScheduler>());
      break;
    case 1:
      engine.set_scheduler(std::make_unique<RandomScheduler>());
      break;
    case 2:
      engine.set_scheduler(std::make_unique<WeightedScheduler>(
          std::vector<std::uint64_t>{1, 3, 1, 7, 2, 5}));
      break;
    default:
      engine.set_scheduler(std::make_unique<PausingScheduler>(
          std::vector<PausingScheduler::Pause>{{0, 100, 900},
                                               {3, 2000, 2500}}));
      break;
  }
  if (with_crashes) {
    engine.schedule_crash(1, 500);
    engine.schedule_crash(4, 500);
    engine.schedule_crash(2, 2000);
  }
  TraceHasher hasher;
  engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  engine.init();
  engine.run(10000);
  return {hasher.hash, hasher.events, hash_stats(engine)};
}

TEST(SoaEngineDifferential, EverySchedulerMatchesLegacyWithAndWithoutCrashes) {
  // Recorded from the calendar-queue engine: scheduler 0 round-robin,
  // 1 random, 2 weighted, 3 pausing; crashes off, then on.
  constexpr Fingerprint kLegacy[4][2] = {
      {{6622720735466614710ull, 29987, 1886913122768223536ull},
       {4047398157093218788ull, 29995, 396842932858478840ull}},
      {{3951587625744091611ull, 29718, 292602400178550095ull},
       {17408170269525657959ull, 29955, 14719318457322181534ull}},
      {{3900436049962392809ull, 24237, 17830983277244531263ull},
       {13859172880248042055ull, 26914, 11899685347254664955ull}},
      {{1441611576770142268ull, 29638, 8718616076557240543ull},
       {12916802870630007558ull, 29824, 6155344255396555360ull}},
  };
  for (int scheduler = 0; scheduler < 4; ++scheduler) {
    for (const bool crashes : {false, true}) {
      EXPECT_EQ(run_gossip(scheduler, 11, crashes),
                kLegacy[scheduler][crashes ? 1 : 0])
          << "scheduler " << scheduler << " crashes " << crashes;
    }
  }
}

// --- engine contract --------------------------------------------------------

/// A broken adversary: round-robin until `victim`'s crash time, then hands
/// the engine the crashed `victim` on every tick.
class StepsTheCrashed final : public Scheduler {
 public:
  StepsTheCrashed(ProcessId victim, Time crash_at)
      : victim_(victim), crash_at_(crash_at) {}
  ProcessId next(std::span<const ProcessId> live, Time now, Rng& rng) override {
    return now >= crash_at_ ? victim_ : fair_.next(live, now, rng);
  }

 private:
  ProcessId victim_;
  Time crash_at_;
  RoundRobinScheduler fair_;
};

fuzz::FuzzConfig one_crash_config() {
  fuzz::FuzzConfig config;
  config.seed = 11;
  config.target = fuzz::TargetKind::kDining;
  config.n = 3;
  config.steps = 2000;
  config.crashes.push_back({1, 500});
  return fuzz::normalize(config);
}

std::vector<fuzz::OracleFailure> engine_failures(const fuzz::RunResult& run) {
  std::vector<fuzz::OracleFailure> out;
  for (const fuzz::OracleFailure& failure : run.failures) {
    if (failure.oracle == "engine") out.push_back(failure);
  }
  return out;
}

TEST(EngineContract, StepAfterCrashFiresEngineOracle) {
  const fuzz::FuzzConfig config = one_crash_config();
  ASSERT_EQ(config.crashes.size(), 1u);
  const fuzz::CrashPlan crash = config.crashes.front();

  fuzz::ConfigRun broken(config);
  broken.engine().set_scheduler(
      std::make_unique<StepsTheCrashed>(crash.pid, crash.at));
  broken.advance_to(config.steps);
  const fuzz::RunResult run = broken.grade(config);
  EXPECT_EQ(run.stats.crashes, 1u);
  const std::vector<fuzz::OracleFailure> failures = engine_failures(run);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].at, crash.at);
  EXPECT_EQ(failures[0].detail,
            "process " + std::to_string(crash.pid) + " stepped at t=" +
                std::to_string(crash.at) + ", at/after its crash time");

  // Control: the stock scheduler never steps the crashed process.
  fuzz::ConfigRun fair(config);
  fair.advance_to(config.steps);
  const fuzz::RunResult clean = fair.grade(config);
  EXPECT_EQ(clean.stats.crashes, 1u);
  EXPECT_TRUE(engine_failures(clean).empty());
}

TEST(EngineContract, UncapturedRunsEnableNoPerStepKind) {
  // Grading listens only to diner transitions and detector flips, so an
  // uncaptured run must keep every per-step and per-message kind on the
  // trace's branch-and-return path.
  for (const fuzz::TargetKind target :
       {fuzz::TargetKind::kDining, fuzz::TargetKind::kScriptedDining,
        fuzz::TargetKind::kExtraction, fuzz::TargetKind::kScriptedExtraction,
        fuzz::TargetKind::kBrokenSingleInstance,
        fuzz::TargetKind::kBrokenForkBased}) {
    fuzz::FuzzConfig config = one_crash_config();
    config.target = target;
    fuzz::ConfigRun run(fuzz::normalize(config));
    const Trace& trace = run.engine().trace();
    for (const EventKind kind :
         {EventKind::kStep, EventKind::kSend, EventKind::kDeliver,
          EventKind::kDrop, EventKind::kCrash}) {
      EXPECT_FALSE(trace.wants(kind))
          << fuzz::to_string(target) << " enables " << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace wfd::sim
