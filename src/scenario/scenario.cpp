#include "scenario/scenario.hpp"

#include <fstream>
#include <sstream>
#include <string_view>

#include "util/json.hpp"

namespace wfd::scenario {

namespace {

using util::Json;

/// Strict-parse context: every failure is path-qualified ("timing.delay:
/// unknown delay ...") so a hand-edited vector pinpoints its own mistake.
struct Ctx {
  std::string* error;
  bool fail(const std::string& path, const std::string& what) {
    if (error != nullptr) {
      *error = path.empty() ? what : path + ": " + what;
    }
    return false;
  }
};

/// A probability field (loss_rate, dup_rate, geo_p): a JSON number that is
/// finite and within [0, 1]. Anything else would either reach the engine's
/// chance() draws meaning nothing, or fail to write back as JSON.
bool parse_probability(Ctx& ctx, const Json& value, const std::string& path,
                       double* out) {
  if (value.kind != Json::Kind::kNumber) {
    return ctx.fail(path, "expected a number");
  }
  const double parsed = value.as_double();
  if (!fuzz::is_probability(parsed)) {
    return ctx.fail(path,
                    "must be a finite number in [0, 1], got " + value.number);
  }
  *out = parsed;
  return true;
}

/// Where a field sits — "base", "base.key", "base[index]" or
/// "base[index].key" — kept in pieces and spelled out only for an error
/// message, so a valid file builds no path strings.
struct Field {
  static constexpr std::size_t kNoIndex = ~std::size_t{0};
  std::string_view base;
  const char* key = nullptr;
  std::size_t index = kNoIndex;

  std::string path() const {
    std::string out(base);
    if (index != kNoIndex) out += "[" + std::to_string(index) + "]";
    if (key != nullptr) out += std::string(".") + key;
    return out;
  }
};

/// An integer field (fuzz::read_unsigned), bounded by its destination type.
template <class T>
bool parse_unsigned(Ctx& ctx, const Json& value, const Field& field, T* out) {
  std::string why;
  return fuzz::read_unsigned(value, out, &why) || ctx.fail(field.path(), why);
}

/// A pid field: an integer naming one of the n processes.
bool parse_pid(Ctx& ctx, const Json& value, const Field& field,
               std::uint32_t n, sim::ProcessId* out) {
  if (!parse_unsigned(ctx, value, field, out)) return false;
  return *out < n ||
         ctx.fail(field.path(), "pid " + std::to_string(*out) +
                                    " is not below n = " + std::to_string(n));
}

/// Reads member `field.key` of `node` when present; absent keeps the
/// default.
template <class T>
bool optional_unsigned(Ctx& ctx, const Json& node, const Field& field,
                       T* out) {
  const Json* f = node.find(field.key);
  return f == nullptr || parse_unsigned(ctx, *f, field, out);
}

bool require_object(Ctx& ctx, const Json& value, const std::string& path) {
  if (value.kind == Json::Kind::kObject) return true;
  return ctx.fail(path, "expected a JSON object");
}

bool check_keys(Ctx& ctx, const Json& object, const std::string& path,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object.members) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) return ctx.fail(path, "unknown key \"" + key + "\"");
  }
  return true;
}

bool parse_topology(Ctx& ctx, const Json& node, fuzz::FuzzConfig* config) {
  if (!require_object(ctx, node, "topology")) return false;
  if (!check_keys(ctx, node, "topology", {"graph", "n"})) return false;
  const Json* graph = node.find("graph");
  const Json* n = node.find("n");
  if (graph == nullptr || n == nullptr) {
    return ctx.fail("topology", "requires \"graph\" and \"n\"");
  }
  if (!fuzz::graph_from_string(graph->as_string(""), &config->graph)) {
    return ctx.fail("topology.graph",
                    "unknown graph \"" + graph->as_string("") + "\"");
  }
  if (!parse_unsigned(ctx, *n, {"topology.n"}, &config->n)) return false;
  if (config->n < 2) return ctx.fail("topology.n", "needs at least 2");
  return true;
}

bool parse_scheduler(Ctx& ctx, const Json& node, fuzz::FuzzConfig* config) {
  if (!require_object(ctx, node, "scheduler")) return false;
  if (!check_keys(ctx, node, "scheduler", {"kind", "weights", "pauses"})) {
    return false;
  }
  const Json* kind = node.find("kind");
  if (kind == nullptr) return ctx.fail("scheduler", "requires \"kind\"");
  if (!fuzz::scheduler_from_string(kind->as_string(""), &config->scheduler)) {
    return ctx.fail("scheduler.kind",
                    "unknown scheduler \"" + kind->as_string("") + "\"");
  }
  if (const Json* weights = node.find("weights")) {
    config->weights.assign(weights->items.size(), 1);
    for (std::size_t i = 0; i < weights->items.size(); ++i) {
      if (!parse_unsigned(ctx, weights->items[i],
                          {"scheduler.weights", nullptr, i},
                          &config->weights[i])) {
        return false;
      }
    }
  }
  if (const Json* pauses = node.find("pauses")) {
    config->pauses.assign(pauses->items.size(), fuzz::PausePlan{});
    for (std::size_t i = 0; i < pauses->items.size(); ++i) {
      const Json& item = pauses->items[i];
      constexpr std::string_view kPath = "scheduler.pauses";
      fuzz::PausePlan& pause = config->pauses[i];
      if (!check_keys(ctx, item, "scheduler.pauses[]",
                      {"pid", "from", "until"})) {
        return false;
      }
      if (const Json* f = item.find("pid")) {
        if (!parse_pid(ctx, *f, {kPath, "pid", i}, config->n, &pause.pid)) {
          return false;
        }
      }
      if (!optional_unsigned(ctx, item, {kPath, "from", i}, &pause.from) ||
          !optional_unsigned(ctx, item, {kPath, "until", i}, &pause.until)) {
        return false;
      }
    }
  }
  return true;
}

bool parse_timing(Ctx& ctx, const Json& node, fuzz::FuzzConfig* config) {
  if (!require_object(ctx, node, "timing")) return false;
  if (!check_keys(ctx, node, "timing", {"delay", "min", "max", "geo_p", "gst"})) {
    return false;
  }
  const Json* delay = node.find("delay");
  if (delay == nullptr) return ctx.fail("timing", "requires \"delay\"");
  if (!fuzz::delay_from_string(delay->as_string(""), &config->delay)) {
    return ctx.fail("timing.delay",
                    "unknown delay \"" + delay->as_string("") + "\"");
  }
  if (!optional_unsigned(ctx, node, {"timing", "min"}, &config->delay_min) ||
      !optional_unsigned(ctx, node, {"timing", "max"}, &config->delay_max) ||
      !optional_unsigned(ctx, node, {"timing", "gst"}, &config->gst)) {
    return false;
  }
  if (config->delay_min > config->delay_max) {
    return ctx.fail("timing.min", std::to_string(config->delay_min) +
                                      " exceeds timing.max " +
                                      std::to_string(config->delay_max));
  }
  if (const Json* f = node.find("geo_p")) {
    if (!parse_probability(ctx, *f, "timing.geo_p", &config->geo_p)) {
      return false;
    }
  }
  return true;
}

bool parse_box(Ctx& ctx, const Json& node, fuzz::FuzzConfig* config) {
  if (!require_object(ctx, node, "box")) return false;
  if (!check_keys(ctx, node, "box",
                  {"exclusive_from", "semantics", "member0_burst",
                   "grant_holdoff", "never_exit_member"})) {
    return false;
  }
  if (!optional_unsigned(ctx, node, {"box", "exclusive_from"},
                         &config->exclusive_from)) {
    return false;
  }
  if (const Json* f = node.find("semantics")) {
    const std::string name = f->as_string("");
    if (name == "lockout") {
      config->semantics = dining::BoxSemantics::kLockout;
    } else if (name == "fork_based") {
      config->semantics = dining::BoxSemantics::kForkBased;
    } else {
      return ctx.fail("box.semantics", "unknown semantics \"" + name + "\"");
    }
  }
  if (!optional_unsigned(ctx, node, {"box", "member0_burst"},
                         &config->member0_burst) ||
      !optional_unsigned(ctx, node, {"box", "grant_holdoff"},
                         &config->grant_holdoff)) {
    return false;
  }
  const Json* f = node.find("never_exit_member");
  std::string why;
  return f == nullptr ||
         fuzz::read_pid_or_none(*f, &config->never_exit_member, &why) ||
         ctx.fail("box.never_exit_member", why);
}

bool parse_network(Ctx& ctx, const Json& node, fuzz::FuzzConfig* config) {
  if (!require_object(ctx, node, "network")) return false;
  if (!check_keys(ctx, node, "network",
                  {"loss_rate", "dup_rate", "dup_spread", "partitions",
                   "retransmit"})) {
    return false;
  }
  if (const Json* f = node.find("loss_rate")) {
    if (!parse_probability(ctx, *f, "network.loss_rate", &config->loss_rate)) {
      return false;
    }
  }
  if (const Json* f = node.find("dup_rate")) {
    if (!parse_probability(ctx, *f, "network.dup_rate", &config->dup_rate)) {
      return false;
    }
  }
  if (!optional_unsigned(ctx, node, {"network", "dup_spread"},
                         &config->dup_spread)) {
    return false;
  }
  if (const Json* partitions = node.find("partitions")) {
    config->partitions.assign(partitions->items.size(),
                              sim::PartitionWindow{});
    for (std::size_t i = 0; i < partitions->items.size(); ++i) {
      const Json& item = partitions->items[i];
      constexpr std::string_view kPath = "network.partitions";
      sim::PartitionWindow& window = config->partitions[i];
      if (!check_keys(ctx, item, "network.partitions[]",
                      {"from", "until", "side"})) {
        return false;
      }
      sim::Time until = 0;
      if (!optional_unsigned(ctx, item, {kPath, "from", i}, &window.from) ||
          !optional_unsigned(ctx, item, {kPath, "until", i}, &until)) {
        return false;
      }
      if (item.find("until") != nullptr) {
        window.until = until == 0 ? sim::kNever : until;  // 0 = never heals
      }
      if (const Json* f = item.find("side")) {
        const std::string side = Field{kPath, "side", i}.path();
        window.side.assign(f->items.size(), 0);
        for (std::size_t j = 0; j < f->items.size(); ++j) {
          if (!parse_pid(ctx, f->items[j], {side, nullptr, j}, config->n,
                         &window.side[j])) {
            return false;
          }
        }
      }
    }
  }
  if (const Json* retransmit = node.find("retransmit")) {
    if (!require_object(ctx, *retransmit, "network.retransmit")) return false;
    if (!check_keys(ctx, *retransmit, "network.retransmit",
                    {"every", "max_attempts"})) {
      return false;
    }
    if (!optional_unsigned(ctx, *retransmit, {"network.retransmit", "every"},
                           &config->retransmit_every) ||
        !optional_unsigned(ctx, *retransmit,
                           {"network.retransmit", "max_attempts"},
                           &config->retransmit_max)) {
      return false;
    }
  }
  return true;
}

bool parse_expectation(Ctx& ctx, const Json& node, const std::string& path,
                       bool allow_seeds, Expectation* out) {
  if (!require_object(ctx, node, path)) return false;
  if (allow_seeds) {
    if (!check_keys(ctx, node, path, {"verdict", "oracle", "seeds"})) {
      return false;
    }
  } else {
    if (!check_keys(ctx, node, path, {"verdict", "oracle"})) return false;
  }
  const Json* verdict = node.find("verdict");
  if (verdict == nullptr) return ctx.fail(path, "requires \"verdict\"");
  const std::string name = verdict->as_string("");
  if (name == "clean") {
    out->violation = false;
  } else if (name == "violation") {
    out->violation = true;
  } else {
    return ctx.fail(path + ".verdict",
                    "expected \"clean\" or \"violation\", got \"" + name +
                        "\"");
  }
  if (const Json* f = node.find("oracle")) out->oracle = f->as_string("");
  if (const Json* f = node.find("seeds")) {
    const std::string seeds = path + ".seeds";
    out->seeds.assign(f->items.size(), 1);
    for (std::size_t i = 0; i < f->items.size(); ++i) {
      if (!parse_unsigned(ctx, f->items[i], {seeds, nullptr, i},
                          &out->seeds[i])) {
        return false;
      }
    }
  }
  out->expected = true;
  return true;
}

}  // namespace

bool parse_scenario(const std::string& text, Scenario* out,
                    std::string* error) {
  Ctx ctx{error};
  Json root;
  if (!Json::parse(text, &root, error)) return false;
  if (!require_object(ctx, root, "")) return false;
  if (!check_keys(ctx, root, "",
                  {"schema_version", "name", "description", "seed", "target",
                   "topology", "steps", "scheduler", "timing", "crashes",
                   "mistake_windows", "detector_lag", "box", "network",
                   "expect"})) {
    return false;
  }
  const Json* version = root.find("schema_version");
  if (version == nullptr) {
    return ctx.fail("", "missing \"schema_version\" (expected 1)");
  }
  // Exactly the integer literal 1: 1.5, 1.0 and "1" are foreign versions.
  if (version->dump() != std::to_string(kSchemaVersion)) {
    return ctx.fail("", "unsupported schema_version " + version->dump() +
                            " (this build supports 1)");
  }
  *out = Scenario{};
  const Json* name = root.find("name");
  if (name == nullptr || name->as_string("").empty()) {
    return ctx.fail("", "requires a non-empty \"name\"");
  }
  out->name = name->as_string("");
  if (const Json* f = root.find("description")) {
    out->description = f->as_string("");
  }

  fuzz::FuzzConfig* config = &out->config;
  const Json* seed = root.find("seed");
  if (seed == nullptr) return ctx.fail("", "requires \"seed\"");
  if (!parse_unsigned(ctx, *seed, {"seed"}, &config->seed)) return false;
  const Json* target = root.find("target");
  if (target == nullptr) return ctx.fail("", "requires \"target\"");
  if (!fuzz::target_from_string(target->as_string(""), &config->target)) {
    return ctx.fail("target",
                    "unknown target \"" + target->as_string("") + "\"");
  }
  const Json* topology = root.find("topology");
  if (topology == nullptr) return ctx.fail("", "requires \"topology\"");
  if (!parse_topology(ctx, *topology, config)) return false;
  const Json* steps = root.find("steps");
  if (steps == nullptr) return ctx.fail("", "requires \"steps\"");
  if (!parse_unsigned(ctx, *steps, {"steps"}, &config->steps)) return false;

  if (const Json* node = root.find("scheduler")) {
    if (!parse_scheduler(ctx, *node, config)) return false;
  }
  if (const Json* node = root.find("timing")) {
    if (!parse_timing(ctx, *node, config)) return false;
  }
  if (const Json* node = root.find("crashes")) {
    config->crashes.assign(node->items.size(), fuzz::CrashPlan{});
    for (std::size_t i = 0; i < node->items.size(); ++i) {
      const Json& item = node->items[i];
      fuzz::CrashPlan& crash = config->crashes[i];
      if (!check_keys(ctx, item, "crashes[]", {"pid", "at"})) return false;
      if (const Json* f = item.find("pid")) {
        if (!parse_pid(ctx, *f, {"crashes", "pid", i}, config->n,
                       &crash.pid)) {
          return false;
        }
      }
      if (!optional_unsigned(ctx, item, {"crashes", "at", i}, &crash.at)) {
        return false;
      }
    }
  }
  if (const Json* node = root.find("mistake_windows")) {
    config->mistakes.assign(node->items.size(), detect::MistakeWindow{});
    for (std::size_t i = 0; i < node->items.size(); ++i) {
      const Json& item = node->items[i];
      constexpr std::string_view kPath = "mistake_windows";
      detect::MistakeWindow& window = config->mistakes[i];
      if (!check_keys(ctx, item, "mistake_windows[]",
                      {"watcher", "subject", "from", "until"})) {
        return false;
      }
      if (const Json* f = item.find("watcher")) {
        if (!parse_pid(ctx, *f, {kPath, "watcher", i}, config->n,
                       &window.watcher)) {
          return false;
        }
      }
      if (const Json* f = item.find("subject")) {
        if (!parse_pid(ctx, *f, {kPath, "subject", i}, config->n,
                       &window.subject)) {
          return false;
        }
      }
      if (!optional_unsigned(ctx, item, {kPath, "from", i}, &window.from) ||
          !optional_unsigned(ctx, item, {kPath, "until", i}, &window.until)) {
        return false;
      }
    }
  }
  if (const Json* node = root.find("detector_lag")) {
    if (!parse_unsigned(ctx, *node, {"detector_lag"}, &config->detector_lag)) {
      return false;
    }
  }
  if (const Json* node = root.find("box")) {
    if (!parse_box(ctx, *node, config)) return false;
  }
  if (const Json* node = root.find("network")) {
    if (!parse_network(ctx, *node, config)) return false;
  }

  const Json* expect = root.find("expect");
  if (expect == nullptr) return ctx.fail("", "requires \"expect\"");
  if (!require_object(ctx, *expect, "expect")) return false;
  if (!check_keys(ctx, *expect, "expect", {"sim", "mc", "fuzz"})) return false;
  if (const Json* node = expect->find("sim")) {
    if (!parse_expectation(ctx, *node, "expect.sim", /*allow_seeds=*/false,
                           &out->expect_sim)) {
      return false;
    }
  }
  if (const Json* node = expect->find("mc")) {
    if (!parse_expectation(ctx, *node, "expect.mc", /*allow_seeds=*/false,
                           &out->expect_mc)) {
      return false;
    }
  }
  if (const Json* node = expect->find("fuzz")) {
    if (!parse_expectation(ctx, *node, "expect.fuzz", /*allow_seeds=*/true,
                           &out->expect_fuzz)) {
      return false;
    }
  }
  if (!out->supports_sim() && !out->supports_mc() && !out->supports_fuzz()) {
    return ctx.fail("expect", "must name at least one engine");
  }

  // Cross-section validity: the mc abstraction models the paper's reliable
  // channels and only the extraction-shaped targets; a scenario that pins
  // an mc verdict must stay inside that envelope.
  if (out->supports_mc()) {
    if (fuzz::has_network_adversary(*config)) {
      return ctx.fail("expect.mc",
                      "the model checker has no lossy-channel abstraction; "
                      "drop \"mc\" or the \"network\" section");
    }
    if (config->target != fuzz::TargetKind::kExtraction &&
        config->target != fuzz::TargetKind::kScriptedExtraction &&
        config->target != fuzz::TargetKind::kBrokenSingleInstance) {
      return ctx.fail(
          "expect.mc",
          std::string("target \"") + fuzz::to_string(config->target) +
              "\" has no model-checker abstraction (extraction targets only)");
    }
  }
  return true;
}

namespace {

Json expectation_to_json(const Expectation& expect) {
  Json node = Json::object();
  node.set("verdict", Json::of_string(expect.violation ? "violation" : "clean"));
  if (!expect.oracle.empty()) node.set("oracle", Json::of_string(expect.oracle));
  if (!expect.seeds.empty()) {
    Json seeds = Json::array();
    for (const std::uint64_t seed : expect.seeds) {
      seeds.push(Json::of_u64(seed));
    }
    node.set("seeds", std::move(seeds));
  }
  return node;
}

}  // namespace

std::string scenario_to_json(const Scenario& scenario) {
  const fuzz::FuzzConfig def{};
  const fuzz::FuzzConfig& config = scenario.config;
  Json root = Json::object();
  root.set("schema_version", Json::of_u64(kSchemaVersion));
  root.set("name", Json::of_string(scenario.name));
  if (!scenario.description.empty()) {
    root.set("description", Json::of_string(scenario.description));
  }
  root.set("seed", Json::of_u64(config.seed));
  root.set("target", Json::of_string(fuzz::to_string(config.target)));
  Json topology = Json::object();
  topology.set("graph", Json::of_string(fuzz::to_string(config.graph)));
  topology.set("n", Json::of_u64(config.n));
  root.set("topology", std::move(topology));
  root.set("steps", Json::of_u64(config.steps));

  Json scheduler = Json::object();
  scheduler.set("kind", Json::of_string(fuzz::to_string(config.scheduler)));
  if (!config.weights.empty()) {
    Json weights = Json::array();
    for (const std::uint64_t weight : config.weights) {
      weights.push(Json::of_u64(weight));
    }
    scheduler.set("weights", std::move(weights));
  }
  if (!config.pauses.empty()) {
    Json pauses = Json::array();
    for (const fuzz::PausePlan& pause : config.pauses) {
      Json node = Json::object();
      node.set("pid", Json::of_u64(pause.pid));
      node.set("from", Json::of_u64(pause.from));
      node.set("until", Json::of_u64(pause.until));
      pauses.push(std::move(node));
    }
    scheduler.set("pauses", std::move(pauses));
  }
  root.set("scheduler", std::move(scheduler));

  Json timing = Json::object();
  timing.set("delay", Json::of_string(fuzz::to_string(config.delay)));
  timing.set("min", Json::of_u64(config.delay_min));
  timing.set("max", Json::of_u64(config.delay_max));
  if (config.delay == fuzz::DelayKind::kGeometric) {
    timing.set("geo_p", Json::of_double(config.geo_p));
  }
  if (config.delay == fuzz::DelayKind::kPartialSynchrony) {
    timing.set("gst", Json::of_u64(config.gst));
  }
  root.set("timing", std::move(timing));

  if (!config.crashes.empty()) {
    Json crashes = Json::array();
    for (const fuzz::CrashPlan& crash : config.crashes) {
      Json node = Json::object();
      node.set("pid", Json::of_u64(crash.pid));
      node.set("at", Json::of_u64(crash.at));
      crashes.push(std::move(node));
    }
    root.set("crashes", std::move(crashes));
  }
  if (!config.mistakes.empty()) {
    Json mistakes = Json::array();
    for (const detect::MistakeWindow& window : config.mistakes) {
      Json node = Json::object();
      node.set("watcher", Json::of_u64(window.watcher));
      node.set("subject", Json::of_u64(window.subject));
      node.set("from", Json::of_u64(window.from));
      node.set("until", Json::of_u64(window.until));
      mistakes.push(std::move(node));
    }
    root.set("mistake_windows", std::move(mistakes));
  }
  if (config.detector_lag != def.detector_lag) {
    root.set("detector_lag", Json::of_u64(config.detector_lag));
  }
  if (config.exclusive_from != def.exclusive_from ||
      config.semantics != def.semantics ||
      config.member0_burst != def.member0_burst ||
      config.grant_holdoff != def.grant_holdoff ||
      config.never_exit_member != def.never_exit_member) {
    Json box = Json::object();
    box.set("exclusive_from", Json::of_u64(config.exclusive_from));
    box.set("semantics",
            Json::of_string(config.semantics == dining::BoxSemantics::kLockout
                                ? "lockout"
                                : "fork_based"));
    box.set("member0_burst", Json::of_u64(config.member0_burst));
    box.set("grant_holdoff", Json::of_u64(config.grant_holdoff));
    box.set("never_exit_member", Json::of_i64(config.never_exit_member));
    root.set("box", std::move(box));
  }
  if (fuzz::has_network_adversary(config)) {
    Json network = Json::object();
    network.set("loss_rate", Json::of_double(config.loss_rate));
    network.set("dup_rate", Json::of_double(config.dup_rate));
    network.set("dup_spread", Json::of_u64(config.dup_spread));
    if (!config.partitions.empty()) {
      Json partitions = Json::array();
      for (const sim::PartitionWindow& window : config.partitions) {
        Json node = Json::object();
        node.set("from", Json::of_u64(window.from));
        node.set("until", Json::of_u64(window.until == sim::kNever
                                           ? 0
                                           : window.until));
        Json side = Json::array();
        for (const sim::ProcessId pid : window.side) {
          side.push(Json::of_u64(pid));
        }
        node.set("side", std::move(side));
        partitions.push(std::move(node));
      }
      network.set("partitions", std::move(partitions));
    }
    if (config.retransmit_every > 0) {
      Json retransmit = Json::object();
      retransmit.set("every", Json::of_u64(config.retransmit_every));
      retransmit.set("max_attempts", Json::of_u64(config.retransmit_max));
      network.set("retransmit", std::move(retransmit));
    }
    root.set("network", std::move(network));
  }

  Json expect = Json::object();
  if (scenario.expect_sim.expected) {
    expect.set("sim", expectation_to_json(scenario.expect_sim));
  }
  if (scenario.expect_mc.expected) {
    expect.set("mc", expectation_to_json(scenario.expect_mc));
  }
  if (scenario.expect_fuzz.expected) {
    expect.set("fuzz", expectation_to_json(scenario.expect_fuzz));
  }
  root.set("expect", std::move(expect));
  return root.dump(2) + "\n";
}

bool load_scenario_file(const std::string& path, Scenario* out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(buffer.str(), out, error);
}

bool save_scenario_file(const std::string& path, const Scenario& scenario) {
  std::ofstream out(path);
  if (!out) return false;
  out << scenario_to_json(scenario);
  return static_cast<bool>(out);
}

}  // namespace wfd::scenario
