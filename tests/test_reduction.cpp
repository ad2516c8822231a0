// Core tests for the paper's reduction (Alg. 1 + Alg. 2): the detector
// extracted from a black-box WF-<>WX dining service satisfies strong
// completeness and eventual strong accuracy — against the real wait-free
// dining algorithm, against adversarial scripted boxes (mistake prefixes,
// unfair grant policies, [12]-style fork semantics), and under crashes.
#include <gtest/gtest.h>

#include <memory>

#include "detect/properties.hpp"
#include "reduce/ablation.hpp"
#include "reduce/extraction.hpp"
#include "reduce/gkk.hpp"
#include "harness/rig.hpp"

namespace wfd::reduce {
namespace {

using detect::DetectorHistory;
using detect::Verdict;
using harness::Rig;
using harness::RigOptions;

constexpr std::uint64_t kExtractTag = 0xED;

/// Register all ordered pairs of an extraction with a history monitor
/// (initial output of Alg. 1 is "suspect").
void register_pairs(DetectorHistory& history, const Extraction& extraction) {
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
}

TEST(Reduction, ExtractsEventuallyPerfectFromRealBox_NoCrashes) {
  Rig rig(RigOptions{.seed = 21, .n = 3, .detector_lag = 25});
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
  // The run converged well before its end, not at the buzzer.
  EXPECT_LT(accuracy.convergence, rig.engine.now() - 20000);
}

TEST(Reduction, StrongCompletenessOnRealBox) {
  Rig rig(RigOptions{.seed = 22, .n = 3, .detector_lag = 25});
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.schedule_crash(2, 5000);
  rig.engine.init();
  rig.engine.run(200000);
  const Verdict completeness = history.strong_completeness(rig.engine);
  EXPECT_TRUE(completeness.holds) << completeness.detail;
  // Correct pairs still converge to trust.
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
  // The witnesses at 0 and 1 suspect 2 right now, permanently.
  EXPECT_TRUE(extraction.detectors[0]->suspects(2));
  EXPECT_TRUE(extraction.detectors[1]->suspects(2));
  EXPECT_FALSE(extraction.detectors[0]->suspects(1));
}

TEST(Reduction, BoxInternalMistakesDoNotBreakExtraction) {
  // The box's internal <>P lies for a while (forcing real scheduling
  // mistakes); the extracted detector must still converge.
  RigOptions options{.seed = 23, .n = 2, .detector_lag = 25};
  options.mistakes = {{0, 1, 200, 2000}, {1, 0, 400, 2500}};
  Rig rig(options);
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

TEST(Reduction, ScriptedBoxWithMistakePrefix) {
  Rig rig(RigOptions{.seed = 24, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/3000,
                             dining::BoxSemantics::kLockout);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

TEST(Reduction, ScriptedForkBasedBox) {
  // [12]-style semantics: mistake-prefix eaters hold no lock.
  Rig rig(RigOptions{.seed = 25, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/2500,
                             dining::BoxSemantics::kForkBased);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

TEST(Reduction, SurvivesUnfairBox) {
  // A wait-free box that serves the witness in bursts of 3. The hand-off
  // must still throttle the witness into trusting the correct subject.
  Rig rig(RigOptions{.seed = 26, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/500,
                             dining::BoxSemantics::kLockout,
                             /*member0_burst=*/3);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

TEST(Reduction, CompletenessOnScriptedBox) {
  Rig rig(RigOptions{.seed = 27, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1000,
                             dining::BoxSemantics::kLockout);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.schedule_crash(1, 4000);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict completeness = history.strong_completeness(rig.engine);
  EXPECT_TRUE(completeness.holds) << completeness.detail;
  EXPECT_TRUE(extraction.detectors[0]->suspects(1));
}

TEST(Reduction, SubjectCrashMidProtocolStillDetected) {
  // Crash the subject early, while the ping/ack handshake may be mid-
  // flight; the witness must converge to permanent suspicion regardless.
  for (sim::Time crash_at : {100u, 500u, 1500u, 2500u}) {
    Rig rig(RigOptions{.seed = 28 + crash_at, .n = 2, .detector_lag = 25});
    WaitFreeBoxFactory factory(
        [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
    auto extraction =
        build_full_extraction(rig.hosts, factory, ExtractionOptions{});
    rig.engine.schedule_crash(1, crash_at);
    rig.engine.init();
    rig.engine.run(120000);
    EXPECT_TRUE(extraction.detectors[0]->suspects(1))
        << "crash_at=" << crash_at;
    // and it stays suspected
    rig.engine.run(20000);
    EXPECT_TRUE(extraction.detectors[0]->suspects(1));
  }
}

TEST(Reduction, WitnessCrashDoesNotWedgeSubjectHost) {
  // If the watcher dies, the subject may stall inside an eating session
  // (discussed in Section 8: behaviour of unobserved subjects is
  // immaterial). The subject's *process* must keep running its other
  // protocol roles: here, its own watcher role towards p.
  Rig rig(RigOptions{.seed = 30, .n = 2, .detector_lag = 25});
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  rig.engine.schedule_crash(0, 2000);
  rig.engine.init();
  rig.engine.run(120000);
  // Process 1 (correct) monitors 0 (crashed): must converge to suspicion.
  EXPECT_TRUE(extraction.detectors[1]->suspects(0));
}

TEST(Reduction, PingsAndMealsKeepFlowing) {
  Rig rig(RigOptions{.seed = 31, .n = 2});
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  rig.engine.init();
  rig.engine.run(60000);
  const auto* pair = extraction.find(0, 1);
  ASSERT_NE(pair, nullptr);
  EXPECT_GT(pair->witness->meals(), 50u);
  EXPECT_GT(pair->subject_threads->meals(), 50u);
  EXPECT_GT(pair->subject_threads->pings_sent(), 50u);
  // Liveness keeps up on both instances (witness alternates).
  rig.engine.run(20000);
  EXPECT_GT(pair->witness->meals(), 60u);
}

TEST(Reduction, SuspicionFlipsAreFiniteOnCorrectPair) {
  Rig rig(RigOptions{.seed = 32, .n = 2});
  WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  rig.engine.init();
  rig.engine.run(100000);
  const auto* pair = extraction.find(0, 1);
  ASSERT_NE(pair, nullptr);
  const std::uint64_t flips = pair->witness->suspicion_flips();
  rig.engine.run(100000);
  EXPECT_EQ(pair->witness->suspicion_flips(), flips)
      << "suspicion flips continued in the converged suffix";
  EXPECT_FALSE(pair->witness->suspects_subject());
}

// --- Section 3: the GKK contention-manager construction -------------------

TEST(Gkk, WorksOnLockoutBox) {
  // On a box whose exclusive suffix locks the witness out behind the
  // never-exiting subject, the GKK construction happens to satisfy
  // eventual accuracy: p ends up permanently trusting q.
  Rig rig(RigOptions{.seed = 33, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1500,
                             dining::BoxSemantics::kLockout);
  GkkPair pair = build_gkk_pair(*rig.hosts[0], *rig.hosts[1], 0, 1, factory,
                                2000, 0x42, kExtractTag);
  rig.engine.init();
  rig.engine.run(100000);
  EXPECT_FALSE(pair.witness->suspects_subject());
  const std::uint64_t episodes = pair.witness->suspicion_episodes();
  rig.engine.run(50000);
  EXPECT_EQ(pair.witness->suspicion_episodes(), episodes);
}

TEST(Gkk, FailsOnForkBasedBox) {
  // The paper's counterexample: against a [12]-style box, the correct,
  // never-exiting subject q holds no lock, so the witness keeps eating —
  // and keeps suspecting correct q — forever. Eventual strong accuracy is
  // violated: suspicion episodes grow without bound.
  Rig rig(RigOptions{.seed = 34, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1500,
                             dining::BoxSemantics::kForkBased);
  GkkPair pair = build_gkk_pair(*rig.hosts[0], *rig.hosts[1], 0, 1, factory,
                                2000, 0x42, kExtractTag);
  rig.engine.init();
  rig.engine.run(60000);
  const std::uint64_t episodes_mid = pair.witness->suspicion_episodes();
  rig.engine.run(60000);
  const std::uint64_t episodes_end = pair.witness->suspicion_episodes();
  EXPECT_GT(episodes_mid, 10u);
  EXPECT_GT(episodes_end, episodes_mid + 10)
      << "suspicions of the correct subject must keep recurring";
}

TEST(Gkk, OurReductionSurvivesTheSameAdversary) {
  // Alg. 1/2 on the very box that defeats GKK: subjects exit via the
  // hand-off, so the extraction converges.
  Rig rig(RigOptions{.seed = 35, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1500,
                             dining::BoxSemantics::kForkBased);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

// --- E9: single-instance ablation ------------------------------------------

TEST(Ablation, SingleInstanceFailsOnUnfairBox) {
  Rig rig(RigOptions{.seed = 36, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/500,
                             dining::BoxSemantics::kLockout,
                             /*member0_burst=*/2);
  SingleInstancePair pair = build_single_instance_pair(
      *rig.hosts[0], *rig.hosts[1], 0, 1, factory, 2000, 0x42, kExtractTag);
  rig.engine.init();
  rig.engine.run(60000);
  const std::uint64_t episodes_mid = pair.witness->suspicion_episodes();
  rig.engine.run(60000);
  EXPECT_GT(pair.witness->suspicion_episodes(), episodes_mid + 10)
      << "without the hand-off, wrongful suspicions recur forever";
}

TEST(Ablation, SingleInstanceFragileEvenOnFairBox) {
  // Even with FIFO grants, asynchrony alone defeats the single-instance
  // extraction: the witness can exit, re-request and be granted again
  // before the subject's (in-flight) request reaches the manager, so
  // wrongful suspicion episodes keep trickling in forever. The hand-off of
  // Alg. 1/2 exists precisely to close this window.
  Rig rig(RigOptions{.seed = 37, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/500,
                             dining::BoxSemantics::kLockout);
  SingleInstancePair pair = build_single_instance_pair(
      *rig.hosts[0], *rig.hosts[1], 0, 1, factory, 2000, 0x42, kExtractTag);
  rig.engine.init();
  rig.engine.run(100000);
  const std::uint64_t episodes = pair.witness->suspicion_episodes();
  EXPECT_GT(episodes, 0u);
  rig.engine.run(50000);
  EXPECT_GT(pair.witness->suspicion_episodes(), episodes)
      << "expected fresh wrongful-suspicion episodes in the late suffix";
}

TEST(Ablation, TwoInstanceSurvivesSameUnfairBox) {
  Rig rig(RigOptions{.seed = 38, .n = 2});
  ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/500,
                             dining::BoxSemantics::kLockout,
                             /*member0_burst=*/2);
  auto extraction =
      build_full_extraction(rig.hosts, factory, ExtractionOptions{});
  DetectorHistory history(kExtractTag);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  register_pairs(history, extraction);
  rig.engine.init();
  rig.engine.run(150000);
  const Verdict accuracy = history.eventual_strong_accuracy(rig.engine);
  EXPECT_TRUE(accuracy.holds) << accuracy.detail;
}

}  // namespace
}  // namespace wfd::reduce
