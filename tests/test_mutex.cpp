// FTME tests: wait-free mutual exclusion under *perpetual* weak exclusion
// using the trusting detector (Section 9's substrate), and the
// T-extraction corollary: running the paper's reduction over FTME boxes
// yields a detector with trusting accuracy.
#include <gtest/gtest.h>

#include <memory>

#include "detect/oracle.hpp"
#include "detect/properties.hpp"
#include "dining/client.hpp"
#include "dining/monitors.hpp"
#include "mutex/ra_mutex.hpp"
#include "reduce/extraction.hpp"
#include "reduce/ftme_box_factory.hpp"
#include "sim/engine.hpp"

namespace wfd::mutex {
namespace {

using detect::DetectorHistory;
using detect::Verdict;

/// Engine + hosts + one OracleTrusting per host + an n-member RA clique.
struct MutexRig {
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleTrusting>> detectors;
  std::vector<std::shared_ptr<RaMutexDiner>> diners;
  RaMutexConfig config;

  MutexRig(std::uint32_t n, std::uint64_t seed, sim::Time lag = 25)
      : engine(sim::EngineConfig{.seed = seed}) {
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    std::vector<const detect::TrustingDetector*> views;
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto oracle =
          std::make_shared<detect::OracleTrusting>(engine, p, n, lag, 0, 0xFD);
      detectors.push_back(oracle);
      hosts[p]->add_component(oracle, {});
      views.push_back(oracle.get());
    }
    config.port = 50;
    config.tag = 7;
    for (sim::ProcessId p = 0; p < n; ++p) config.members.push_back(p);
    diners = build_ra_mutex(hosts, config, views);
  }
};

TEST(RaMutex, PerpetualExclusionNoCrashes) {
  MutexRig rig(4, 41);
  dining::DiningMonitor monitor(
      rig.engine,
      dining::DiningInstanceConfig{rig.config.port, rig.config.tag,
                                   rig.config.members, graph::make_clique(4)});
  dining::DiningMonitor::attach(rig.engine, monitor);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *rig.diners[i], dining::ClientConfig{.think_min = 1, .think_max = 4});
    rig.hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  rig.engine.init();
  rig.engine.run(80000);
  EXPECT_EQ(monitor.exclusion_violations(), 0u)
      << "perpetual weak exclusion violated";
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GT(rig.diners[i]->meals(), 20u) << "member " << i;
  }
}

TEST(RaMutex, PerpetualExclusionUnderCrashes) {
  MutexRig rig(4, 42);
  dining::DiningMonitor monitor(
      rig.engine,
      dining::DiningInstanceConfig{rig.config.port, rig.config.tag,
                                   rig.config.members, graph::make_clique(4)});
  dining::DiningMonitor::attach(rig.engine, monitor);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *rig.diners[i], dining::ClientConfig{.think_min = 1, .think_max = 4});
    rig.hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  rig.engine.schedule_crash(1, 2000);
  rig.engine.schedule_crash(2, 6000);
  rig.engine.init();
  rig.engine.run(120000);
  EXPECT_EQ(monitor.exclusion_violations(), 0u)
      << "exclusion must hold even across crash certificates";
  std::string detail;
  EXPECT_TRUE(monitor.wait_free(rig.engine.now(), 25000, &detail)) << detail;
  EXPECT_GT(rig.diners[0]->meals(), 50u);
  EXPECT_GT(rig.diners[3]->meals(), 50u);
}

TEST(RaMutex, SurvivorEatsAfterEveryoneElseDies) {
  MutexRig rig(3, 43);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *rig.diners[i], dining::ClientConfig{.think_min = 1, .think_max = 2});
    rig.hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  rig.engine.schedule_crash(0, 500);
  rig.engine.schedule_crash(1, 700);
  rig.engine.init();
  rig.engine.run(60000);
  EXPECT_GT(rig.diners[2]->meals(), 100u);
}

TEST(RaMutex, CrashWhileEatingReleasesViaCertificate) {
  // Member 0 crashes inside its critical section; its OKs are gone, but
  // the others' T modules certify the crash and the CS frees up.
  MutexRig rig(3, 44);
  auto client0 = std::make_shared<dining::DinerClient>(
      *rig.diners[0], dining::ClientConfig{.think_min = 1,
                                           .think_max = 2,
                                           .eat_min = 4000,
                                           .eat_max = 4000});
  rig.hosts[0]->add_component(client0, {});
  for (std::uint32_t i : {1u, 2u}) {
    auto client = std::make_shared<dining::DinerClient>(
        *rig.diners[i], dining::ClientConfig{.think_min = 1, .think_max = 4});
    rig.hosts[i]->add_component(client, {});
  }
  rig.engine.schedule_crash(0, 1000);  // mid-meal (meal lasts 4000)
  rig.engine.init();
  rig.engine.run(80000);
  EXPECT_GT(rig.diners[1]->meals(), 50u);
  EXPECT_GT(rig.diners[2]->meals(), 50u);
}

// --- Section 9: extracting T from a perpetual-WX box ----------------------

struct TExtractionRig {
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleTrusting>> oracles;

  TExtractionRig(std::uint32_t n, std::uint64_t seed)
      : engine(sim::EngineConfig{.seed = seed}) {
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto oracle =
          std::make_shared<detect::OracleTrusting>(engine, p, n, 25, 0, 0xFD);
      oracles.push_back(oracle);
      hosts[p]->add_component(oracle, {});
    }
  }
};

TEST(TExtraction, TrustingAccuracyOnCorrectPair) {
  TExtractionRig rig(2, 45);
  reduce::FtmeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.oracles[p].get(); });
  auto extraction =
      reduce::build_full_extraction(rig.hosts, factory, reduce::ExtractionOptions{});
  // Grade the trusting view (tag + 1).
  DetectorHistory history(0xED + 1);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  rig.engine.init();
  rig.engine.run(200000);
  const Verdict verdict = history.trusting_accuracy(rig.engine);
  EXPECT_TRUE(verdict.holds) << verdict.detail;
  const auto* pair = extraction.find(0, 1);
  ASSERT_NE(pair, nullptr);
  EXPECT_TRUE(pair->witness->trusts_subject_T());
  EXPECT_FALSE(pair->witness->certainly_crashed_T());
}

TEST(TExtraction, CertificateOnlyAfterRealCrash) {
  TExtractionRig rig(2, 46);
  reduce::FtmeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.oracles[p].get(); });
  auto extraction =
      reduce::build_full_extraction(rig.hosts, factory, reduce::ExtractionOptions{});
  DetectorHistory history(0xED + 1);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  rig.engine.schedule_crash(1, 30000);  // well after warm-up
  rig.engine.init();
  rig.engine.run(250000);
  const Verdict verdict = history.trusting_accuracy(rig.engine);
  EXPECT_TRUE(verdict.holds) << verdict.detail;
  const auto* pair = extraction.find(0, 1);
  ASSERT_NE(pair, nullptr);
  EXPECT_TRUE(pair->witness->certainly_crashed_T());
  // And the certificate was issued only after the crash.
  EXPECT_GE(history.last_flip(0, 1), 30000u);
}

TEST(TExtraction, EarlyCrashNeverCertified) {
  // Subject dies before warm-up completes: T's spec allows (requires)
  // permanent suspicion but no trusted->suspected certificate is needed;
  // what matters is that trust is never reported for the dead process.
  TExtractionRig rig(2, 47);
  reduce::FtmeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.oracles[p].get(); });
  auto extraction =
      reduce::build_full_extraction(rig.hosts, factory, reduce::ExtractionOptions{});
  rig.engine.schedule_crash(1, 50);
  rig.engine.init();
  rig.engine.run(100000);
  const auto* pair = extraction.find(0, 1);
  ASSERT_NE(pair, nullptr);
  EXPECT_FALSE(pair->witness->trusts_subject_T());
  EXPECT_TRUE(pair->witness->suspects_subject());
}

}  // namespace
}  // namespace wfd::mutex
