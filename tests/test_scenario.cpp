// Scenario DSL tests: strict schema-v1 parsing (unknown keys are errors at
// every level, path-qualified), canonical round-trip serialization, the
// three engine adapters, and the hardened .repro surface that now shares
// the same versioned-strictness rules. The adapter-equivalence suite pins
// the API-redesign contract: a scenario routed through to_fuzz_config is
// bit-identical — same signature, same verdict, same stats — to the
// hand-built FuzzConfig it replaces.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"

namespace wfd {
namespace {

/// Minimal valid scenario text, mutated by the error-path tests.
std::string base_scenario() {
  return R"({
    "schema_version": 1,
    "name": "base",
    "seed": 1,
    "target": "scripted_extraction",
    "topology": {"graph": "ring", "n": 2},
    "steps": 60000,
    "expect": {"sim": {"verdict": "clean"}}
  })";
}

scenario::Scenario parse_ok(const std::string& text) {
  scenario::Scenario out;
  std::string error;
  EXPECT_TRUE(scenario::parse_scenario(text, &out, &error)) << error;
  return out;
}

void expect_round_trip(const std::string& text);

std::string parse_error(const std::string& text) {
  scenario::Scenario out;
  std::string error;
  EXPECT_FALSE(scenario::parse_scenario(text, &out, &error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(ScenarioParse, MinimalScenarioDefaults) {
  const scenario::Scenario s = parse_ok(base_scenario());
  EXPECT_EQ(s.name, "base");
  EXPECT_EQ(s.config.seed, 1u);
  EXPECT_EQ(s.config.target, fuzz::TargetKind::kScriptedExtraction);
  EXPECT_EQ(s.config.n, 2u);
  EXPECT_EQ(s.config.steps, 60000u);
  // Untouched sections keep FuzzConfig defaults.
  EXPECT_EQ(s.config.scheduler, fuzz::SchedulerKind::kRandom);
  EXPECT_EQ(s.config.delay, fuzz::DelayKind::kUniform);
  EXPECT_EQ(s.config.detector_lag, 20u);
  EXPECT_TRUE(s.supports_sim());
  EXPECT_FALSE(s.supports_mc());
  EXPECT_FALSE(s.supports_fuzz());
}

TEST(ScenarioParse, MissingSchemaVersionFails) {
  const std::string error = parse_error(R"({
    "name": "x", "seed": 1, "target": "dining",
    "topology": {"graph": "ring", "n": 2}, "steps": 100,
    "expect": {"sim": {"verdict": "clean"}}
  })");
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;
}

TEST(ScenarioParse, ForeignSchemaVersionFails) {
  std::string text = base_scenario();
  text.replace(text.find("\"schema_version\": 1"), 19, "\"schema_version\": 2");
  const std::string error = parse_error(text);
  EXPECT_NE(error.find("unsupported schema_version 2"), std::string::npos)
      << error;
}

TEST(ScenarioParse, UnknownTopLevelKeyFails) {
  std::string text = base_scenario();
  text.insert(text.find("\"name\""), "\"topologee\": {}, ");
  const std::string error = parse_error(text);
  EXPECT_NE(error.find("unknown key \"topologee\""), std::string::npos)
      << error;
}

TEST(ScenarioParse, UnknownNestedKeysArePathQualified) {
  struct Case {
    const char* anchor;
    const char* inject;
    const char* expect_path;
  };
  const Case cases[] = {
      {"\"graph\"", "\"m\": 3, ", "topology"},
      {"\"verdict\"", "\"orcale\": \"x\", ", "expect.sim"},
  };
  for (const Case& c : cases) {
    std::string text = base_scenario();
    text.insert(text.find(c.anchor), c.inject);
    const std::string error = parse_error(text);
    EXPECT_NE(error.find(c.expect_path), std::string::npos) << error;
    EXPECT_NE(error.find("unknown key"), std::string::npos) << error;
  }
}

TEST(ScenarioParse, UnknownSchedulerAndNetworkKeysFail) {
  scenario::Scenario out;
  std::string error;
  std::string text = base_scenario();
  text.insert(text.find("\"expect\""),
              "\"scheduler\": {\"kind\": \"random\", \"quantum\": 5}, ");
  ASSERT_FALSE(scenario::parse_scenario(text, &out, &error));
  EXPECT_NE(error.find("scheduler: unknown key \"quantum\""),
            std::string::npos)
      << error;

  text = base_scenario();
  text.insert(text.find("\"expect\""),
              "\"network\": {\"loss_rate\": 0.1, \"jitter\": 2}, ");
  ASSERT_FALSE(scenario::parse_scenario(text, &out, &error));
  EXPECT_NE(error.find("network: unknown key \"jitter\""), std::string::npos)
      << error;

  text = base_scenario();
  text.insert(
      text.find("\"expect\""),
      "\"network\": {\"partitions\": [{\"from\": 1, \"heal\": 2}]}, ");
  ASSERT_FALSE(scenario::parse_scenario(text, &out, &error));
  EXPECT_NE(error.find("network.partitions[]: unknown key \"heal\""),
            std::string::npos)
      << error;
}

TEST(ScenarioParse, BadEnumsFail) {
  std::string text = base_scenario();
  text.replace(text.find("scripted_extraction"), 19, "scripted_extrusion");
  EXPECT_NE(parse_error(text).find("unknown target"), std::string::npos);

  text = base_scenario();
  text.replace(text.find("\"ring\""), 6, "\"wheel\"");
  EXPECT_NE(parse_error(text).find("topology.graph"), std::string::npos);

  text = base_scenario();
  text.replace(text.find("\"verdict\": \"clean\""), 18,
               "\"verdict\": \"mostly_clean\"");
  EXPECT_NE(parse_error(text).find("expect.sim.verdict"), std::string::npos);
}

TEST(ScenarioParse, OutOfRangeRatesFailWithTheirPath) {
  // Each probe used to parse: -0.5 was then silently dropped on write and
  // the infinities were written as bare `inf`, which no reader accepts.
  struct Field {
    const char* section;
    const char* key;
    const char* path;
  };
  const Field fields[] = {
      {"network", "loss_rate", "network.loss_rate"},
      {"network", "dup_rate", "network.dup_rate"},
  };
  for (const Field& field : fields) {
    for (const char* probe : {"5", "-0.5", "1e999", "-1e999"}) {
      std::string text = base_scenario();
      text.insert(text.find("\"expect\""), std::string("\"") + field.section +
                                              "\": {\"" + field.key +
                                              "\": " + probe + "}, ");
      const std::string error = parse_error(text);
      EXPECT_EQ(error.rfind(std::string(field.path) +
                                ": must be a finite number in [0, 1]",
                            0),
                0u)
          << probe << " -> " << error;
    }
  }
  std::string text = base_scenario();
  text.insert(text.find("\"expect\""),
              "\"timing\": {\"delay\": \"geometric\", \"geo_p\": 1e999}, ");
  EXPECT_EQ(parse_error(text).rfind("timing.geo_p: must be a finite number", 0),
            0u);
  text = base_scenario();
  text.insert(text.find("\"expect\""), "\"network\": {\"loss_rate\": \"0.1\"}, ");
  EXPECT_EQ(parse_error(text), "network.loss_rate: expected a number");
}

TEST(ScenarioParse, BoundaryRatesAreAcceptedAndRoundTrip) {
  for (const char* rates : {"\"loss_rate\": 0, \"dup_rate\": 1",
                            "\"loss_rate\": 1, \"dup_rate\": 0.25"}) {
    std::string text = base_scenario();
    text.replace(text.find("scripted_extraction"), 19, "dining");
    text.insert(text.find("\"expect\""),
                std::string("\"network\": {") + rates + "}, ");
    expect_round_trip(text);
  }
}

TEST(ScenarioParse, SeedsOnlyBelongToFuzz) {
  std::string text = base_scenario();
  text.replace(text.find("{\"verdict\": \"clean\"}"), 20,
               "{\"verdict\": \"clean\", \"seeds\": [1]}");
  const std::string error = parse_error(text);
  EXPECT_NE(error.find("expect.sim"), std::string::npos) << error;
  EXPECT_NE(error.find("\"seeds\""), std::string::npos) << error;
}

TEST(ScenarioParse, ExpectMustNameAnEngine) {
  std::string text = base_scenario();
  text.replace(text.find("{\"sim\": {\"verdict\": \"clean\"}}"), 29, "{}");
  EXPECT_NE(parse_error(text).find("at least one engine"), std::string::npos);
}

TEST(ScenarioParse, McRejectsNetworkAdversary) {
  std::string text = base_scenario();
  text.insert(text.find("\"expect\""), "\"network\": {\"loss_rate\": 0.2}, ");
  text.replace(text.find("{\"sim\": {\"verdict\": \"clean\"}}"), 29,
               "{\"mc\": {\"verdict\": \"clean\"}}");
  const std::string error = parse_error(text);
  EXPECT_NE(error.find("expect.mc"), std::string::npos) << error;
  EXPECT_NE(error.find("lossy-channel"), std::string::npos) << error;
}

TEST(ScenarioParse, McRejectsDiningTargets) {
  std::string text = base_scenario();
  text.replace(text.find("scripted_extraction"), 19, "dining");
  text.replace(text.find("{\"sim\": {\"verdict\": \"clean\"}}"), 29,
               "{\"mc\": {\"verdict\": \"clean\"}}");
  const std::string error = parse_error(text);
  EXPECT_NE(error.find("no model-checker abstraction"), std::string::npos)
      << error;
}

TEST(ScenarioParse, PartitionUntilZeroMeansNever) {
  std::string text = base_scenario();
  text.insert(text.find("\"expect\""),
              "\"network\": {\"partitions\": "
              "[{\"from\": 100, \"until\": 0, \"side\": [0]}]}, ");
  const scenario::Scenario s = parse_ok(text);
  ASSERT_EQ(s.config.partitions.size(), 1u);
  EXPECT_EQ(s.config.partitions[0].until, sim::kNever);
}

// Integer fields used to go through a bare strtoull. These tests only parse:
// running n = 4294967293 would try to build a rig of four billion processes.
// integer_probe swaps the first `from` in the base scenario for `to`.
std::string integer_probe(const std::string& from, const std::string& to) {
  std::string text = base_scenario();
  text.replace(text.find(from), from.size(), to);
  return text;
}

TEST(ScenarioParse, NegativeNIsRejected) {
  const std::string error =
      parse_error(integer_probe("\"n\": 2", "\"n\": -3"));
  EXPECT_EQ(error.rfind("topology.n: must be a non-negative integer", 0), 0u)
      << error;  // used to parse as n = 4294967293
  EXPECT_NE(error.find("got -3"), std::string::npos) << error;
}

TEST(ScenarioParse, NWiderThan32BitsIsRejected) {
  const std::string error =
      parse_error(integer_probe("\"n\": 2", "\"n\": 4294967298"));
  EXPECT_EQ(error.rfind("topology.n: must be a non-negative integer no larger "
                        "than 4294967295",
                        0),
            0u)
      << error;  // used to truncate to n = 2
}

TEST(ScenarioParse, NegativeStepsIsRejected) {
  const std::string error =
      parse_error(integer_probe("\"steps\": 60000", "\"steps\": -1"));
  EXPECT_EQ(error.rfind("steps: must be a non-negative integer", 0), 0u)
      << error;  // used to parse as 2^64 - 1
}

TEST(ScenarioParse, FractionalStepsIsRejected) {
  const std::string error =
      parse_error(integer_probe("\"steps\": 60000", "\"steps\": 1.5"));
  EXPECT_EQ(error.rfind("steps: must be a non-negative integer", 0), 0u)
      << error;  // used to truncate to 1
  EXPECT_NE(error.find("got 1.5"), std::string::npos) << error;
}

TEST(ScenarioParse, StringStepsIsRejected) {
  const std::string error =
      parse_error(integer_probe("\"steps\": 60000", "\"steps\": \"x\""));
  EXPECT_EQ(error.rfind("steps: must be a non-negative integer", 0), 0u)
      << error;  // used to read as 0
}

TEST(ScenarioParse, CrashPidOutsideTheTopologyIsRejected) {
  std::string text = integer_probe("\"n\": 2", "\"n\": 3");
  text.insert(text.find("\"expect\""),
              "\"crashes\": [{\"pid\": 1, \"at\": 5}, "
              "{\"pid\": 7, \"at\": 10}], ");
  const std::string error = parse_error(text);
  EXPECT_EQ(error, "crashes[1].pid: pid 7 is not below n = 3");
}

TEST(ScenarioParse, TimingMinAboveMaxIsRejected) {
  std::string text = base_scenario();
  text.insert(text.find("\"expect\""),
              "\"timing\": {\"delay\": \"uniform\", \"min\": 9, "
              "\"max\": 2}, ");
  EXPECT_EQ(parse_error(text), "timing.min: 9 exceeds timing.max 2");
}

TEST(ScenarioParse, IntegerBoundariesAreAccepted) {
  // The widest time a window can name (sim::kNever) still parses, and a
  // pid of n - 1 is a real process.
  std::string text = integer_probe("\"n\": 2", "\"n\": 3");
  text.insert(text.find("\"expect\""),
              "\"mistake_windows\": [{\"watcher\": 2, \"subject\": 0, "
              "\"from\": 0, \"until\": 18446744073709551615}], ");
  const scenario::Scenario s = parse_ok(text);
  ASSERT_EQ(s.config.mistakes.size(), 1u);
  EXPECT_EQ(s.config.mistakes[0].watcher, 2u);
  EXPECT_EQ(s.config.mistakes[0].until, sim::kNever);

  text.replace(text.find("18446744073709551615"), 20, "18446744073709551616");
  EXPECT_EQ(parse_error(text).rfind("mistake_windows[0].until: must be", 0),
            0u);
}

std::string with_never_exit_member(const std::string& value) {
  std::string text = integer_probe("scripted_extraction", "scripted_dining");
  text.insert(text.find("\"expect\""),
              "\"box\": {\"never_exit_member\": " + value + "}, ");
  return text;
}

TEST(ScenarioParse, NeverExitMemberIsAPidOrMinusOne) {
  // 1e10 used to be an out-of-range float-to-int conversion and 1.7 read
  // as 1; both are errors now, as is any other negative value.
  for (const char* probe :
       {"1e10", "1.7", "-2", "-1.0", "2147483648", "\"1\"", "true"}) {
    const std::string error = parse_error(with_never_exit_member(probe));
    EXPECT_EQ(error.rfind("box.never_exit_member: must be -1 (none) or a "
                          "non-negative integer no larger than 2147483647",
                          0),
              0u)
        << probe << ": " << error;
  }
  EXPECT_EQ(parse_ok(with_never_exit_member("-1")).config.never_exit_member,
            -1);
  EXPECT_EQ(parse_ok(with_never_exit_member("1")).config.never_exit_member, 1);
  // The widest accepted pid parses as itself; normalize maps a pid >= n to
  // -1 (none).
  const scenario::Scenario widest =
      parse_ok(with_never_exit_member("2147483647"));
  EXPECT_EQ(widest.config.never_exit_member, 2147483647);
  EXPECT_EQ(fuzz::normalize(widest.config).never_exit_member, -1);
  EXPECT_EQ(fuzz::normalize(parse_ok(with_never_exit_member("1")).config)
                .never_exit_member,
            1);
}

TEST(ScenarioParse, SchemaVersionMustBeTheInteger1) {
  // 1.5 used to read as version 1.
  for (const std::string probe : {"1.5", "1.0", "1e0", "-1", "\"1\""}) {
    const std::string error = parse_error(integer_probe(
        "\"schema_version\": 1", "\"schema_version\": " + probe));
    EXPECT_EQ(error,
              "unsupported schema_version " + probe + " (this build supports 1)");
  }
}

// ---------------------------------------------------------------------------
// Round-trip: parse -> write -> parse is structurally the identity, and the
// writer is canonical (write(parse(write(x))) == write(x) byte for byte).

void expect_round_trip(const std::string& text) {
  scenario::Scenario first;
  std::string error;
  ASSERT_TRUE(scenario::parse_scenario(text, &first, &error)) << error;
  const std::string written = scenario::scenario_to_json(first);
  scenario::Scenario second;
  ASSERT_TRUE(scenario::parse_scenario(written, &second, &error))
      << error << "\nwritten:\n"
      << written;
  const std::string rewritten = scenario::scenario_to_json(second);
  EXPECT_EQ(written, rewritten);

  util::Json a, b;
  ASSERT_TRUE(util::Json::parse(written, &a, &error)) << error;
  ASSERT_TRUE(util::Json::parse(rewritten, &b, &error)) << error;
  EXPECT_TRUE(structurally_equal(a, b));  // hidden friend, found via ADL
}

TEST(ScenarioRoundTrip, MinimalScenario) { expect_round_trip(base_scenario()); }

TEST(ScenarioRoundTrip, EverySectionPopulated) {
  expect_round_trip(R"({
    "schema_version": 1,
    "name": "kitchen-sink",
    "description": "every optional section at once",
    "seed": 42,
    "target": "scripted_dining",
    "topology": {"graph": "clique", "n": 4},
    "steps": 50000,
    "scheduler": {"kind": "pausing",
                  "pauses": [{"pid": 1, "from": 100, "until": 300}]},
    "timing": {"delay": "geometric", "min": 1, "max": 16, "geo_p": 0.25},
    "crashes": [{"pid": 3, "at": 9000}],
    "mistake_windows": [{"watcher": 0, "subject": 1, "from": 5, "until": 40}],
    "detector_lag": 35,
    "box": {"exclusive_from": 1200, "semantics": "fork_based",
            "member0_burst": 2, "grant_holdoff": 7, "never_exit_member": 2},
    "network": {"loss_rate": 0.05, "dup_rate": 0.1, "dup_spread": 4,
                "partitions": [{"from": 10, "until": 0, "side": [0, 2]},
                               {"from": 50, "until": 90, "side": [1]}]},
    "expect": {"sim": {"verdict": "violation", "oracle": "wx_safety"},
               "fuzz": {"verdict": "violation", "seeds": [7, 8, 9]}}
  })");
}

TEST(ScenarioRoundTrip, ConformanceVectors) {
  namespace fs = std::filesystem;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(WFD_VECTOR_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".scenario.json") == std::string::npos) continue;
    std::ifstream in(entry.path());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    SCOPED_TRACE(name);
    expect_round_trip(buffer.str());
    ++count;
  }
  EXPECT_GE(count, 12u) << "conformance corpus shrank";
}

// ---------------------------------------------------------------------------
// Adapter equivalence (the API-redesign contract): a scenario routed
// through to_fuzz_config must be bit-identical to the hand-built FuzzConfig
// it replaces — same signature, same verdict, same stats.

struct Regime {
  const char* name;
  const char* text;
  fuzz::FuzzConfig direct;
};

std::vector<Regime> equivalence_regimes() {
  std::vector<Regime> regimes;
  {
    fuzz::FuzzConfig direct;
    direct.seed = 1;
    direct.target = fuzz::TargetKind::kScriptedExtraction;
    direct.n = 2;
    direct.steps = 60000;
    direct.delay_max = 4;
    regimes.push_back({"exclusive", R"({
      "schema_version": 1, "name": "exclusive", "seed": 1,
      "target": "scripted_extraction",
      "topology": {"graph": "ring", "n": 2}, "steps": 60000,
      "timing": {"delay": "uniform", "min": 1, "max": 4},
      "expect": {"sim": {"verdict": "clean"}}
    })", direct});
  }
  {
    fuzz::FuzzConfig direct;
    direct.seed = 4;
    direct.target = fuzz::TargetKind::kScriptedExtraction;
    direct.n = 2;
    direct.steps = 60000;
    direct.delay_max = 4;
    direct.exclusive_from = 4000;
    regimes.push_back({"mistake-prefix", R"({
      "schema_version": 1, "name": "mistake-prefix", "seed": 4,
      "target": "scripted_extraction",
      "topology": {"graph": "ring", "n": 2}, "steps": 60000,
      "timing": {"delay": "uniform", "min": 1, "max": 4},
      "box": {"exclusive_from": 4000},
      "expect": {"sim": {"verdict": "clean"}}
    })", direct});
  }
  {
    fuzz::FuzzConfig direct;
    direct.seed = 6;
    direct.target = fuzz::TargetKind::kScriptedExtraction;
    direct.n = 3;
    direct.steps = 60000;
    direct.delay_max = 4;
    direct.crashes.push_back({2, 9000});
    regimes.push_back({"crash", R"({
      "schema_version": 1, "name": "crash", "seed": 6,
      "target": "scripted_extraction",
      "topology": {"graph": "ring", "n": 3}, "steps": 60000,
      "timing": {"delay": "uniform", "min": 1, "max": 4},
      "crashes": [{"pid": 2, "at": 9000}],
      "expect": {"sim": {"verdict": "clean"}}
    })", direct});
  }
  {
    fuzz::FuzzConfig direct;
    direct.seed = 1;
    direct.target = fuzz::TargetKind::kBrokenSingleInstance;
    direct.n = 2;
    direct.steps = 50000;
    regimes.push_back({"broken-single-instance", R"({
      "schema_version": 1, "name": "broken-single-instance", "seed": 1,
      "target": "broken_single_instance",
      "topology": {"graph": "ring", "n": 2}, "steps": 50000,
      "expect": {"sim": {"verdict": "violation"}}
    })", direct});
  }
  {
    fuzz::FuzzConfig direct;
    direct.seed = 20;
    direct.target = fuzz::TargetKind::kDining;
    direct.n = 4;
    direct.steps = 60000;
    direct.delay_max = 4;
    direct.partitions.push_back({1000, sim::kNever, {0}});
    regimes.push_back({"partitioned-dining", R"({
      "schema_version": 1, "name": "partitioned-dining", "seed": 20,
      "target": "dining",
      "topology": {"graph": "ring", "n": 4}, "steps": 60000,
      "timing": {"delay": "uniform", "min": 1, "max": 4},
      "network": {"partitions": [{"from": 1000, "until": 0, "side": [0]}]},
      "expect": {"sim": {"verdict": "violation"}}
    })", direct});
  }
  return regimes;
}

TEST(AdapterEquivalence, ScenarioRouteIsBitIdenticalToDirectConfig) {
  for (const Regime& regime : equivalence_regimes()) {
    SCOPED_TRACE(regime.name);
    scenario::Scenario s;
    std::string error;
    ASSERT_TRUE(scenario::parse_scenario(regime.text, &s, &error)) << error;

    const fuzz::RunResult via_scenario =
        fuzz::run_config(scenario::to_fuzz_config(s));
    const fuzz::RunResult direct = fuzz::run_config(regime.direct);

    EXPECT_EQ(via_scenario.signature, direct.signature);
    EXPECT_EQ(via_scenario.ok(), direct.ok());
    EXPECT_EQ(via_scenario.failures.size(), direct.failures.size());
    if (!via_scenario.failures.empty() && !direct.failures.empty()) {
      EXPECT_EQ(via_scenario.primary()->oracle, direct.primary()->oracle);
      EXPECT_EQ(via_scenario.primary()->at, direct.primary()->at);
    }
    EXPECT_EQ(via_scenario.stats.steps, direct.stats.steps);
    EXPECT_EQ(via_scenario.stats.messages_sent, direct.stats.messages_sent);
    EXPECT_EQ(via_scenario.stats.total_meals, direct.stats.total_meals);
  }
}

// ---------------------------------------------------------------------------
// The mc adapter's regime derivation.

scenario::Scenario scenario_for(const std::string& target, std::uint32_t n,
                                const std::string& extra = "") {
  std::string text = R"({
    "schema_version": 1, "name": "mc-derive", "seed": 1,
    "target": ")" + target + R"(",
    "topology": {"graph": "ring", "n": )" + std::to_string(n) + R"(},
    "steps": 60000, )" + extra + R"(
    "expect": {"sim": {"verdict": "clean"}}
  })";
  return parse_ok(text);
}

TEST(McAdapter, ConvergedRegimeChecksAccuracy) {
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(
      scenario_for("scripted_extraction", 2), &instance, &error))
      << error;
  EXPECT_EQ(instance.family, scenario::McFamily::kReduction);
  EXPECT_EQ(instance.options.mode, mc::BoxMode::kExclusive);
  EXPECT_TRUE(instance.options.check_accuracy);
  EXPECT_FALSE(instance.options.allow_crash);
  EXPECT_TRUE(instance.options.check_deadlock);
  EXPECT_EQ(instance.options.pairs, 1u);
}

TEST(McAdapter, MistakePrefixDropsAccuracy) {
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(
      scenario_for("scripted_extraction", 2,
                   "\"box\": {\"exclusive_from\": 4000},"),
      &instance, &error))
      << error;
  EXPECT_EQ(instance.options.mode, mc::BoxMode::kArbitrary);
  EXPECT_FALSE(instance.options.check_accuracy);
}

TEST(McAdapter, CrashPlanDropsDeadlockCheck) {
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(
      scenario_for("scripted_extraction", 3,
                   "\"crashes\": [{\"pid\": 2, \"at\": 9000}],"),
      &instance, &error))
      << error;
  EXPECT_TRUE(instance.options.allow_crash);
  EXPECT_FALSE(instance.options.check_deadlock);
}

TEST(McAdapter, FullExtractionComposesPairs) {
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(scenario_for("extraction", 3),
                                       &instance, &error))
      << error;
  EXPECT_EQ(instance.options.pairs, 2u);
}

TEST(McAdapter, AblationTargetSelectsAblationFamily) {
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(
      scenario_for("broken_single_instance", 2), &instance, &error))
      << error;
  EXPECT_EQ(instance.family, scenario::McFamily::kAblation);
}

TEST(McAdapter, DiningAndNetworkAreRejectedWithReasons) {
  scenario::McInstance instance;
  std::string error;
  EXPECT_FALSE(
      scenario::to_mc_instance(scenario_for("dining", 3), &instance, &error));
  EXPECT_NE(error.find("no model-checker abstraction"), std::string::npos)
      << error;

  EXPECT_FALSE(scenario::to_mc_instance(
      scenario_for("scripted_extraction", 2,
                   "\"network\": {\"loss_rate\": 0.3},"),
      &instance, &error));
  EXPECT_NE(error.find("reliable channels"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// The hardened .repro surface (same versioned-strictness rules).

std::string hostile_repro(const std::string& mutate_from,
                          const std::string& mutate_to) {
  fuzz::ReproCase repro;
  repro.config.target = fuzz::TargetKind::kDining;
  std::string text = fuzz::repro_to_json(repro);
  const std::size_t at = text.find(mutate_from);
  EXPECT_NE(at, std::string::npos) << text;
  text.replace(at, mutate_from.size(), mutate_to);
  return text;
}

TEST(ReproSchema, MissingVersionIsAVersionedError) {
  fuzz::ReproCase out;
  std::string error;
  EXPECT_FALSE(fuzz::repro_from_json(
      hostile_repro("\"schema_version\": 1,", ""), &out, &error));
  EXPECT_NE(error.find("missing \"schema_version\""), std::string::npos)
      << error;
}

TEST(ReproSchema, ForeignVersionIsAVersionedError) {
  fuzz::ReproCase out;
  std::string error;
  EXPECT_FALSE(fuzz::repro_from_json(
      hostile_repro("\"schema_version\": 1", "\"schema_version\": 99"), &out,
      &error));
  EXPECT_NE(error.find("unsupported schema_version 99"), std::string::npos)
      << error;
}

TEST(ReproSchema, UnknownTopLevelKeyIsRejected) {
  fuzz::ReproCase out;
  std::string error;
  EXPECT_FALSE(fuzz::repro_from_json(
      hostile_repro("\"expect\":", "\"exploit\": {\"x\": 1}, \"expect\":"),
      &out, &error));
  EXPECT_NE(error.find("unknown repro key \"exploit\""), std::string::npos)
      << error;
}

TEST(ReproSchema, UnknownConfigKeyIsRejected) {
  fuzz::ReproCase out;
  std::string error;
  EXPECT_FALSE(fuzz::repro_from_json(
      hostile_repro("\"seed\":", "\"sneaky\": 7, \"seed\":"), &out, &error));
  EXPECT_NE(error.find("unknown config key \"sneaky\""), std::string::npos)
      << error;
}

TEST(ReproSchema, OutOfRangeRateIsRejected) {
  for (const char* probe : {"5", "-0.5", "1e999", "-1e999"}) {
    fuzz::ReproCase out;
    std::string error;
    EXPECT_FALSE(fuzz::repro_from_json(
        hostile_repro("\"loss_rate\": 0", std::string("\"loss_rate\": ") + probe),
        &out, &error))
        << probe;
    EXPECT_EQ(error.rfind("loss_rate: must be a finite number in [0, 1]", 0), 0u)
        << error;
  }
}

// The .repro reader shares parse_scenario's integer check: same cases,
// config-key paths.
TEST(ReproSchema, IntegerFieldsAreChecked) {
  struct Case {
    const char* from;
    const char* to;
    const char* error_prefix;
  };
  const Case cases[] = {
      {"\"n\": 2", "\"n\": -3", "n: must be a non-negative integer"},
      {"\"n\": 2", "\"n\": 4294967298", "n: must be a non-negative integer"},
      {"\"steps\": 60000", "\"steps\": -1",
       "steps: must be a non-negative integer"},
      {"\"steps\": 60000", "\"steps\": 1.5",
       "steps: must be a non-negative integer"},
      {"\"steps\": 60000", "\"steps\": \"x\"",
       "steps: must be a non-negative integer"},
      {"\"crashes\": []", "\"crashes\": [{\"pid\": 7, \"at\": 10}]",
       "crashes[0].pid: pid 7 is not below n = 2"},
      {"\"delay_min\": 1", "\"delay_min\": 9",
       "delay_min: 9 exceeds delay_max 8"},
      {"\"at\": 0", "\"at\": -2", "at: must be a non-negative integer"},
  };
  for (const Case& c : cases) {
    fuzz::ReproCase out;
    std::string error;
    EXPECT_FALSE(
        fuzz::repro_from_json(hostile_repro(c.from, c.to), &out, &error))
        << c.to;
    EXPECT_EQ(error.rfind(c.error_prefix, 0), 0u) << c.to << ": " << error;
  }
}

TEST(ReproSchema, NeverExitMemberIsAPidOrMinusOne) {
  for (const char* probe : {"1e10", "1.7", "-2", "2147483648", "\"1\""}) {
    fuzz::ReproCase out;
    std::string error;
    EXPECT_FALSE(fuzz::repro_from_json(
        hostile_repro("\"never_exit_member\": -1",
                      std::string("\"never_exit_member\": ") + probe),
        &out, &error))
        << probe;
    EXPECT_EQ(error.rfind("never_exit_member: must be -1 (none) or a "
                          "non-negative integer no larger than 2147483647",
                          0),
              0u)
        << probe << ": " << error;
  }
  fuzz::ReproCase out;
  std::string error;
  ASSERT_TRUE(fuzz::repro_from_json(
      hostile_repro("\"never_exit_member\": -1", "\"never_exit_member\": 2"),
      &out, &error))
      << error;
  EXPECT_EQ(out.config.never_exit_member, 2);
}

TEST(ReproSchema, SchemaVersionMustBeTheInteger1) {
  for (const std::string probe : {"1.5", "1.0", "1e0", "-1", "\"1\""}) {
    fuzz::ReproCase out;
    std::string error;
    EXPECT_FALSE(fuzz::repro_from_json(
        hostile_repro("\"schema_version\": 1", "\"schema_version\": " + probe),
        &out, &error))
        << probe;
    EXPECT_EQ(error,
              "unsupported schema_version " + probe + " (this build supports 1)");
  }
}

TEST(UtilJson, NonFiniteNumbersAreRefusedOnWrite) {
  EXPECT_THROW(util::Json::of_double(std::numeric_limits<double>::infinity()),
               std::domain_error);
  EXPECT_THROW(util::Json::of_double(-std::numeric_limits<double>::infinity()),
               std::domain_error);
  EXPECT_THROW(util::Json::of_double(std::numeric_limits<double>::quiet_NaN()),
               std::domain_error);
  EXPECT_EQ(util::Json::of_double(0.1).dump(), "0.1");
  EXPECT_EQ(util::Json::of_double(-0.5).dump(), "-0.5");
}

TEST(ReproSchema, CurrentWriterOutputStillLoads) {
  fuzz::ReproCase repro;
  repro.config.seed = 9;
  repro.config.target = fuzz::TargetKind::kBrokenForkBased;
  repro.config.loss_rate = 0.25;
  repro.config.partitions.push_back({100, sim::kNever, {0}});
  repro.oracle = "wx_safety";
  repro.at = 1234;
  fuzz::ReproCase out;
  std::string error;
  ASSERT_TRUE(fuzz::repro_from_json(fuzz::repro_to_json(repro), &out, &error))
      << error;
  EXPECT_EQ(out.config.seed, 9u);
  EXPECT_EQ(out.config.loss_rate, 0.25);
  ASSERT_EQ(out.config.partitions.size(), 1u);
  EXPECT_EQ(out.config.partitions[0].until, sim::kNever);
  EXPECT_EQ(out.oracle, "wx_safety");
}

// ---------------------------------------------------------------------------
// The network adversary keeps run_config a pure function of the config, and
// normalize stays idempotent over the new knobs.

TEST(NetworkAdversary, RunsAreDeterministic) {
  fuzz::FuzzConfig config;
  config.seed = 18;
  config.target = fuzz::TargetKind::kDining;
  config.n = 4;
  config.steps = 20000;
  config.dup_rate = 0.2;
  config.loss_rate = 0.01;
  const fuzz::RunResult a = fuzz::run_config(config);
  const fuzz::RunResult b = fuzz::run_config(config);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.messages_lost, b.stats.messages_lost);
  EXPECT_EQ(a.stats.messages_duplicated, b.stats.messages_duplicated);
  EXPECT_GT(a.stats.messages_duplicated, 0u);
}

TEST(NetworkAdversary, ConservationHoldsUnderLossAndDuplication) {
  fuzz::FuzzConfig config;
  config.seed = 5;
  config.target = fuzz::TargetKind::kDining;
  config.n = 3;
  config.steps = 15000;
  config.dup_rate = 0.3;
  config.loss_rate = 0.05;
  const fuzz::RunResult result = fuzz::run_config(config);
  const fuzz::RunStats& s = result.stats;
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped + s.in_transit);
  EXPECT_LE(s.messages_lost, s.messages_dropped);
  for (const fuzz::OracleFailure& failure : result.failures) {
    EXPECT_NE(failure.oracle, "engine") << failure.detail;
  }
}

TEST(NetworkAdversary, NormalizeClampsAndStaysIdempotent) {
  fuzz::FuzzConfig config;
  config.target = fuzz::TargetKind::kDining;
  config.n = 3;
  config.steps = 10000;
  config.loss_rate = 1.7;
  config.dup_rate = -0.5;
  config.dup_spread = 10000;
  config.partitions.push_back({0, 50, {0, 0, 7}});   // dup + out-of-range pid
  config.partitions.push_back({0, 50, {0, 1, 2}});   // whole population: drop
  const fuzz::FuzzConfig once = fuzz::normalize(config);
  EXPECT_LE(once.loss_rate, 0.9);
  EXPECT_GE(once.dup_rate, 0.0);
  EXPECT_LE(once.dup_spread, 64u);
  for (const sim::PartitionWindow& window : once.partitions) {
    EXPECT_FALSE(window.side.empty());
    EXPECT_LT(window.side.size(), once.n);
    EXPECT_GE(window.from, 1u);
  }
  const fuzz::FuzzConfig twice = fuzz::normalize(once);
  EXPECT_EQ(fuzz::config_to_json(once), fuzz::config_to_json(twice));
}

TEST(NetworkAdversary, SignatureUntouchedWithoutAdversary) {
  // The signature of an adversary-free config must not change because the
  // feature vector grew: has_network_adversary gates the new features.
  fuzz::FuzzConfig config;
  config.seed = 3;
  config.target = fuzz::TargetKind::kDining;
  config.n = 3;
  config.steps = 10000;
  ASSERT_FALSE(fuzz::has_network_adversary(config));
  fuzz::FuzzConfig with_net = config;
  with_net.loss_rate = 0.2;
  ASSERT_TRUE(fuzz::has_network_adversary(with_net));
  EXPECT_NE(fuzz::run_config(config).signature,
            fuzz::run_config(with_net).signature);
}

}  // namespace
}  // namespace wfd
