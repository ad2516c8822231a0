#include "fuzz/config.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace wfd::fuzz {

namespace {

struct NameEntry {
  const char* name;
  std::uint8_t value;
};

constexpr NameEntry kTargets[] = {
    {"dining", 0},  {"scripted_dining", 1},        {"extraction", 2},
    {"scripted_extraction", 3}, {"broken_single_instance", 4},
    {"broken_fork_based", 5},
};
constexpr const char* kSchedulers[] = {"round_robin", "random", "weighted",
                                       "pausing"};
constexpr const char* kDelays[] = {"fixed", "uniform", "geometric",
                                   "partial_synchrony"};
constexpr const char* kGraphs[] = {"pair", "ring", "clique", "star", "path"};

template <class E, std::size_t N>
const char* enum_name(const char* const (&names)[N], E value) {
  const auto index = static_cast<std::size_t>(value);
  return index < N ? names[index] : "?";
}

template <std::size_t N>
bool enum_from_name(const char* const (&names)[N], const std::string& name,
                    std::uint8_t* out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      *out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

const char* to_string(TargetKind target) {
  const auto index = static_cast<std::size_t>(target);
  return index < std::size(kTargets) ? kTargets[index].name : "?";
}

bool target_from_string(const std::string& name, TargetKind* out) {
  for (const NameEntry& entry : kTargets) {
    if (name == entry.name) {
      *out = static_cast<TargetKind>(entry.value);
      return true;
    }
  }
  return false;
}

bool is_extraction_target(TargetKind target) {
  return target == TargetKind::kExtraction ||
         target == TargetKind::kScriptedExtraction ||
         target == TargetKind::kBrokenSingleInstance;
}

bool is_broken_target(TargetKind target) {
  return target == TargetKind::kBrokenSingleInstance ||
         target == TargetKind::kBrokenForkBased;
}

bool has_network_adversary(const FuzzConfig& config) {
  return config.loss_rate > 0.0 || config.dup_rate > 0.0 ||
         !config.partitions.empty();
}

bool is_probability(double value) {
  return std::isfinite(value) && value >= 0.0 && value <= 1.0;
}

bool read_unsigned(const util::Json& value, std::uint64_t max,
                   std::uint64_t* out, std::string* error) {
  const auto reject = [&] {
    if (error != nullptr) {
      *error = "must be a non-negative integer no larger than " +
               std::to_string(max) + ", got " + value.dump();
    }
    return false;
  };
  if (value.kind != util::Json::Kind::kNumber || value.number.empty()) {
    return reject();
  }
  std::uint64_t parsed = 0;
  for (const char c : value.number) {
    if (c < '0' || c > '9') return reject();
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || parsed > (max - digit) / 10) return reject();
    parsed = parsed * 10 + digit;
  }
  *out = parsed;
  return true;
}

bool read_pid_or_none(const util::Json& value, std::int32_t* out,
                      std::string* error) {
  constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
  const bool none = value.dump() == "-1";
  std::uint64_t pid = 0;
  if (!none && !read_unsigned(value, kMax, &pid, nullptr)) {
    if (error != nullptr) {
      *error = "must be -1 (none) or a non-negative integer no larger than " +
               std::to_string(kMax) + ", got " + value.dump();
    }
    return false;
  }
  *out = none ? -1 : static_cast<std::int32_t>(pid);
  return true;
}

const char* to_string(SchedulerKind kind) { return enum_name(kSchedulers, kind); }
const char* to_string(DelayKind kind) { return enum_name(kDelays, kind); }
const char* to_string(GraphKind kind) { return enum_name(kGraphs, kind); }

bool scheduler_from_string(const std::string& name, SchedulerKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kSchedulers, name, &raw)) return false;
  *out = static_cast<SchedulerKind>(raw);
  return true;
}

bool delay_from_string(const std::string& name, DelayKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kDelays, name, &raw)) return false;
  *out = static_cast<DelayKind>(raw);
  return true;
}

bool graph_from_string(const std::string& name, GraphKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kGraphs, name, &raw)) return false;
  *out = static_cast<GraphKind>(raw);
  return true;
}

sim::Time effective_delay_max(const FuzzConfig& config) {
  switch (config.delay) {
    case DelayKind::kFixed:
      return std::max<sim::Time>(1, config.delay_max);
    case DelayKind::kUniform:
      return std::max(config.delay_min, config.delay_max);
    case DelayKind::kGeometric:
      return std::max<sim::Time>(1, config.delay_max);
    case DelayKind::kPartialSynchrony:
      // Pre-GST messages are capped at gst + delta after the send; post-GST
      // at delta. The worst draw is the pre-GST cap.
      return std::max(config.delay_min, config.delay_max);
  }
  return 1;
}

sim::Time convergence_deadline(const FuzzConfig& config) {
  sim::Time base = config.exclusive_from;
  for (const auto& window : config.mistakes) base = std::max(base, window.until);
  for (const auto& crash : config.crashes) {
    base = std::max(base, crash.at + config.detector_lag);
  }
  for (const auto& pause : config.pauses) base = std::max(base, pause.until);
  if (config.delay == DelayKind::kPartialSynchrony) {
    base = std::max(base, config.gst);
  }
  // A healing partition is a disturbance that ends at `until`; a permanent
  // one (kNever) has no convergence point, so it does not stretch the
  // deadline — runs with one are expected to fail their eventual oracles,
  // which is the point of shipping it.
  for (const auto& window : config.partitions) {
    if (window.until != sim::kNever) base = std::max(base, window.until);
  }
  // Margin: in-flight effects of pre-deadline disturbances (a prefix grant
  // issued one tick before exclusive_from still travels, is eaten, and is
  // released up to ~delay_max + eat-time later), plus the arbitration knobs
  // that stretch the box's reaction time. Extraction targets additionally
  // need a few witness meal cycles — each one a full hungry->eating->exit
  // round trip through the box plus a ping/ack exchange — to withdraw a
  // prefix suspicion, so their margin is doubled.
  sim::Time margin = 3000 + 200 * effective_delay_max(config) +
                     64 * config.grant_holdoff +
                     1500 * static_cast<sim::Time>(config.member0_burst);
  if (is_extraction_target(config.target) ||
      config.target == TargetKind::kBrokenForkBased) {
    margin *= 2;
  }
  return base + margin;
}

sim::Time wait_free_bound(const FuzzConfig& config) {
  // A hungry spell may legitimately span a whole pause window, a crash
  // detection lag, or a burst of competitor meals; the bound stays far above
  // all of those yet far below the post-deadline runway, so a starved diner
  // is always flagged while legal waits never are.
  const sim::Time floor = 8000 + 400 * effective_delay_max(config) +
                          64 * config.grant_holdoff +
                          1500 * static_cast<sim::Time>(config.member0_burst) +
                          2 * config.detector_lag;
  return std::max(floor, config.steps / 4);
}

std::string config_to_json(const FuzzConfig& config, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream out;
  out << "{\n";
  const auto field = [&](const char* key, const std::string& rendered,
                         bool last = false) {
    out << pad << quote(key) << ": " << rendered << (last ? "\n" : ",\n");
  };
  const auto num = [](auto value) {
    std::ostringstream text;
    text << value;
    return text.str();
  };
  field("seed", num(config.seed));
  field("target", quote(to_string(config.target)));
  field("n", num(config.n));
  field("steps", num(config.steps));
  field("graph", quote(to_string(config.graph)));
  field("scheduler", quote(to_string(config.scheduler)));
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.weights.size(); ++i) {
      list << (i > 0 ? ", " : "") << config.weights[i];
    }
    list << "]";
    field("weights", list.str());
  }
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.pauses.size(); ++i) {
      const PausePlan& pause = config.pauses[i];
      list << (i > 0 ? ", " : "") << "{\"pid\": " << pause.pid
           << ", \"from\": " << pause.from << ", \"until\": " << pause.until
           << "}";
    }
    list << "]";
    field("pauses", list.str());
  }
  field("delay", quote(to_string(config.delay)));
  field("delay_min", num(config.delay_min));
  field("delay_max", num(config.delay_max));
  field("geo_p", num(config.geo_p));
  field("gst", num(config.gst));
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.crashes.size(); ++i) {
      list << (i > 0 ? ", " : "") << "{\"pid\": " << config.crashes[i].pid
           << ", \"at\": " << config.crashes[i].at << "}";
    }
    list << "]";
    field("crashes", list.str());
  }
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.mistakes.size(); ++i) {
      const detect::MistakeWindow& window = config.mistakes[i];
      list << (i > 0 ? ", " : "") << "{\"watcher\": " << window.watcher
           << ", \"subject\": " << window.subject << ", \"from\": " << window.from
           << ", \"until\": " << window.until << "}";
    }
    list << "]";
    field("mistakes", list.str());
  }
  field("detector_lag", num(config.detector_lag));
  field("exclusive_from", num(config.exclusive_from));
  field("semantics", quote(config.semantics == dining::BoxSemantics::kLockout
                               ? "lockout"
                               : "fork_based"));
  field("member0_burst", num(config.member0_burst));
  field("grant_holdoff", num(config.grant_holdoff));
  field("never_exit_member", num(config.never_exit_member));
  field("loss_rate", num(config.loss_rate));
  field("dup_rate", num(config.dup_rate));
  field("dup_spread", num(config.dup_spread));
  field("retransmit_every", num(config.retransmit_every));
  field("retransmit_max", num(config.retransmit_max));
  {
    // A permanent partition (until == kNever) serializes as "until": 0 —
    // "never heals" — keeping the JSON free of 2^64-1 magic numbers.
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.partitions.size(); ++i) {
      const sim::PartitionWindow& window = config.partitions[i];
      list << (i > 0 ? ", " : "") << "{\"from\": " << window.from
           << ", \"until\": "
           << (window.until == sim::kNever ? 0 : window.until)
           << ", \"side\": [";
      for (std::size_t j = 0; j < window.side.size(); ++j) {
        list << (j > 0 ? ", " : "") << window.side[j];
      }
      list << "]}";
    }
    list << "]";
    field("partitions", list.str(), /*last=*/true);
  }
  out << "}";
  return out.str();
}

namespace {

bool apply_config_json(const util::Json& root, FuzzConfig* out, std::string* error,
                       bool strict = false) {
  if (root.kind != util::Json::Kind::kObject) {
    if (error != nullptr) *error = "config is not a JSON object";
    return false;
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  const auto probability = [&](const std::string& key, const util::Json& value,
                               double* out) {
    const double parsed = value.as_double(*out);
    if (!is_probability(parsed)) {
      return fail(key + ": must be a finite number in [0, 1], got " +
                  value.number);
    }
    *out = parsed;
    return true;
  };
  const auto integer = [&](const std::string& path, const util::Json& value,
                           auto* field) {
    std::string why;
    return read_unsigned(value, field, &why) || fail(path + ": " + why);
  };
  // An integer member of a plan object; an absent one keeps its default.
  const auto member = [&](const util::Json& item, const std::string& path,
                          const char* name, auto* field) {
    const util::Json* f = item.find(name);
    std::string why;
    return f == nullptr || read_unsigned(*f, field, &why) ||
           fail(path + "." + name + ": " + why);
  };
  const auto at = [](const std::string& key, std::size_t i) {
    return key + "[" + std::to_string(i) + "]";
  };
  for (const auto& [key, value] : root.members) {
    if (key == "seed") {
      if (!integer(key, value, &out->seed)) return false;
    } else if (key == "target") {
      if (!target_from_string(value.as_string(""), &out->target)) {
        return fail("unknown target: " + value.as_string(""));
      }
    } else if (key == "n") {
      if (!integer(key, value, &out->n)) return false;
    } else if (key == "steps") {
      if (!integer(key, value, &out->steps)) return false;
    } else if (key == "graph") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kGraphs, value.as_string(""), &raw)) {
        return fail("unknown graph: " + value.as_string(""));
      }
      out->graph = static_cast<GraphKind>(raw);
    } else if (key == "scheduler") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kSchedulers, value.as_string(""), &raw)) {
        return fail("unknown scheduler: " + value.as_string(""));
      }
      out->scheduler = static_cast<SchedulerKind>(raw);
    } else if (key == "weights") {
      out->weights.assign(value.items.size(), 1);
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        if (!integer(at(key, i), value.items[i], &out->weights[i])) {
          return false;
        }
      }
    } else if (key == "pauses") {
      out->pauses.assign(value.items.size(), PausePlan{});
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const std::string path = at(key, i);
        PausePlan& pause = out->pauses[i];
        if (!member(value.items[i], path, "pid", &pause.pid) ||
            !member(value.items[i], path, "from", &pause.from) ||
            !member(value.items[i], path, "until", &pause.until)) {
          return false;
        }
      }
    } else if (key == "delay") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kDelays, value.as_string(""), &raw)) {
        return fail("unknown delay: " + value.as_string(""));
      }
      out->delay = static_cast<DelayKind>(raw);
    } else if (key == "delay_min") {
      if (!integer(key, value, &out->delay_min)) return false;
    } else if (key == "delay_max") {
      if (!integer(key, value, &out->delay_max)) return false;
    } else if (key == "geo_p") {
      if (!probability(key, value, &out->geo_p)) return false;
    } else if (key == "gst") {
      if (!integer(key, value, &out->gst)) return false;
    } else if (key == "crashes") {
      out->crashes.assign(value.items.size(), CrashPlan{});
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const std::string path = at(key, i);
        CrashPlan& crash = out->crashes[i];
        if (!member(value.items[i], path, "pid", &crash.pid) ||
            !member(value.items[i], path, "at", &crash.at)) {
          return false;
        }
      }
    } else if (key == "mistakes") {
      out->mistakes.assign(value.items.size(), detect::MistakeWindow{});
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const util::Json& item = value.items[i];
        const std::string path = at(key, i);
        detect::MistakeWindow& window = out->mistakes[i];
        if (!member(item, path, "watcher", &window.watcher) ||
            !member(item, path, "subject", &window.subject) ||
            !member(item, path, "from", &window.from) ||
            !member(item, path, "until", &window.until)) {
          return false;
        }
      }
    } else if (key == "detector_lag") {
      if (!integer(key, value, &out->detector_lag)) return false;
    } else if (key == "exclusive_from") {
      if (!integer(key, value, &out->exclusive_from)) return false;
    } else if (key == "semantics") {
      const std::string name = value.as_string("lockout");
      if (name == "lockout") {
        out->semantics = dining::BoxSemantics::kLockout;
      } else if (name == "fork_based") {
        out->semantics = dining::BoxSemantics::kForkBased;
      } else {
        return fail("unknown semantics: " + name);
      }
    } else if (key == "member0_burst") {
      if (!integer(key, value, &out->member0_burst)) return false;
    } else if (key == "grant_holdoff") {
      if (!integer(key, value, &out->grant_holdoff)) return false;
    } else if (key == "never_exit_member") {
      std::string why;
      if (!read_pid_or_none(value, &out->never_exit_member, &why)) {
        return fail(key + ": " + why);
      }
    } else if (key == "loss_rate") {
      if (!probability(key, value, &out->loss_rate)) return false;
    } else if (key == "dup_rate") {
      if (!probability(key, value, &out->dup_rate)) return false;
    } else if (key == "dup_spread") {
      if (!integer(key, value, &out->dup_spread)) return false;
    } else if (key == "retransmit_every") {
      if (!integer(key, value, &out->retransmit_every)) return false;
    } else if (key == "retransmit_max") {
      if (!integer(key, value, &out->retransmit_max)) return false;
    } else if (key == "partitions") {
      out->partitions.assign(value.items.size(), sim::PartitionWindow{});
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const util::Json& item = value.items[i];
        const std::string path = at(key, i);
        sim::PartitionWindow& window = out->partitions[i];
        sim::Time until = 0;
        if (!member(item, path, "from", &window.from) ||
            !member(item, path, "until", &until)) {
          return false;
        }
        if (item.find("until") != nullptr) {
          window.until = until == 0 ? sim::kNever : until;  // 0 = never heals
        }
        if (const util::Json* f = item.find("side")) {
          window.side.assign(f->items.size(), 0);
          for (std::size_t j = 0; j < f->items.size(); ++j) {
            if (!integer(at(path + ".side", j), f->items[j],
                         &window.side[j])) {
              return false;
            }
          }
        }
      }
    } else if (strict) {
      // Strict mode (.repro / scenario surfaces): an unrecognized key is a
      // hand-edit mistake or a file from a newer schema — fail loudly
      // instead of silently dropping behavior.
      return fail("unknown config key \"" + key + "\"");
    }
    // Lenient mode ignores unknown keys: forward compat for hand edits.
  }

  // Cross-field checks wait until every key is read: members come in any
  // order, so "n" may follow the plans that name pids.
  const auto pid = [&](const std::string& path, sim::ProcessId value) {
    return value < out->n ||
           fail(path + ": pid " + std::to_string(value) +
                " is not below n = " + std::to_string(out->n));
  };
  for (std::size_t i = 0; i < out->pauses.size(); ++i) {
    if (!pid(at("pauses", i) + ".pid", out->pauses[i].pid)) return false;
  }
  for (std::size_t i = 0; i < out->crashes.size(); ++i) {
    if (!pid(at("crashes", i) + ".pid", out->crashes[i].pid)) return false;
  }
  for (std::size_t i = 0; i < out->mistakes.size(); ++i) {
    if (!pid(at("mistakes", i) + ".watcher", out->mistakes[i].watcher) ||
        !pid(at("mistakes", i) + ".subject", out->mistakes[i].subject)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < out->partitions.size(); ++i) {
    for (std::size_t j = 0; j < out->partitions[i].side.size(); ++j) {
      if (!pid(at(at("partitions", i) + ".side", j),
               out->partitions[i].side[j])) {
        return false;
      }
    }
  }
  if (out->delay_min > out->delay_max) {
    return fail("delay_min: " + std::to_string(out->delay_min) +
                " exceeds delay_max " + std::to_string(out->delay_max));
  }
  return true;
}

}  // namespace

bool config_from_json(const std::string& text, FuzzConfig* out,
                      std::string* error) {
  util::Json root;
  if (!util::Json::parse(text, &root, error)) return false;
  *out = FuzzConfig{};
  return apply_config_json(root, out, error);
}

std::string repro_to_json(const ReproCase& repro) {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"expect\": {\"oracle\": "
      << quote(repro.oracle) << ", \"at\": " << repro.at
      << ", \"detail\": " << quote(repro.detail) << "},\n  \"config\": ";
  // Re-indent the config object under the top-level object.
  const std::string config = config_to_json(repro.config, 4);
  for (const char c : config) {
    out << c;
    if (c == '\n') out << "  ";
  }
  out << "\n}\n";
  return out.str();
}

bool repro_from_json(const std::string& text, ReproCase* out,
                     std::string* error) {
  util::Json root;
  if (!util::Json::parse(text, &root, error)) return false;
  if (root.kind != util::Json::Kind::kObject) {
    if (error != nullptr) *error = "repro is not a JSON object";
    return false;
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  // Versioned schema, strict keys: a .repro pins an outcome bit-exactly, so
  // silently ignoring a key (typo'd hand edit, future-schema field) would
  // replay a DIFFERENT case and still claim success. Unknown keys and
  // missing/foreign versions are hard errors; missing known fields still
  // default (strict means no surprises, not no defaults).
  const util::Json* version = root.find("schema_version");
  if (version == nullptr) {
    return fail("missing \"schema_version\" (expected 1; pre-versioning "
                "files must be migrated)");
  }
  // Exactly the integer literal 1: 1.5, 1.0 and "1" are foreign versions.
  if (version->dump() != "1") {
    return fail("unsupported schema_version " + version->dump() +
                " (this build supports 1)");
  }
  *out = ReproCase{};
  for (const auto& [key, value] : root.members) {
    if (key == "schema_version" || key == "expect" || key == "config") continue;
    return fail("unknown repro key \"" + key + "\"");
  }
  if (const util::Json* expect = root.find("expect")) {
    for (const auto& [key, value] : expect->members) {
      if (key == "oracle") {
        out->oracle = value.as_string("none");
      } else if (key == "at") {
        std::string why;
        if (!read_unsigned(value, &out->at, &why)) return fail("at: " + why);
      } else if (key == "detail") {
        out->detail = value.as_string("");
      } else {
        return fail("unknown expect key \"" + key + "\"");
      }
    }
  }
  const util::Json* config = root.find("config");
  if (config == nullptr) {
    return fail("repro has no \"config\" member");
  }
  return apply_config_json(*config, &out->config, error, /*strict=*/true);
}

bool load_repro_file(const std::string& path, ReproCase* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return repro_from_json(buffer.str(), out, error);
}

bool save_repro_file(const std::string& path, const ReproCase& repro) {
  std::ofstream out(path);
  if (!out) return false;
  out << repro_to_json(repro);
  return static_cast<bool>(out);
}

}  // namespace wfd::fuzz
