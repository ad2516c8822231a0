// The fuzzer's configuration space: one FuzzConfig is a complete, seeded,
// replayable description of a simulator campaign run — target system,
// population size, scheduler/delay adversary, crash & mistake schedule and
// the scripted-box knobs. A run is a pure function of the config (the
// engine is seeded from config.seed), which is what makes shrinking and
// .repro replay deterministic.
//
// Targets split into two families:
//  * legal systems (the real wait-free dining algorithm, the scripted box
//    with a finite mistake prefix, and the Alg. 1/2 extraction over either)
//    — every property oracle must hold on every run; a failure is a bug in
//    the implementation (or an unsound oracle bound);
//  * deliberately broken systems (the E9 single-instance ablation with the
//    hand-off removed; a fork-based scripted box with a never-exiting
//    mistake-prefix eater, i.e. the Section 3 counterexample) — the fuzzer
//    must FIND the violation, shrink it, and write a replayable .repro.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "detect/oracle.hpp"
#include "dining/scripted_box.hpp"
#include "sim/net.hpp"
#include "sim/types.hpp"

namespace wfd::util {
struct Json;
}  // namespace wfd::util

namespace wfd::fuzz {

enum class TargetKind : std::uint8_t {
  kDining,               ///< hygienic wait-free dining + workload clients
  kScriptedDining,       ///< scripted box as the dining service (legal prefix)
  kExtraction,           ///< Alg. 1/2 reduction over the real wait-free box
  kScriptedExtraction,   ///< Alg. 1/2 reduction over the scripted box
  kBrokenSingleInstance, ///< E9 ablation: hand-off removed -> accuracy fails
  kBrokenForkBased,      ///< fork-based box + never-exiting prefix eater -> WX fails
};

const char* to_string(TargetKind target);
bool target_from_string(const std::string& name, TargetKind* out);
bool is_extraction_target(TargetKind target);
bool is_broken_target(TargetKind target);

enum class SchedulerKind : std::uint8_t { kRoundRobin, kRandom, kWeighted, kPausing };
enum class DelayKind : std::uint8_t { kFixed, kUniform, kGeometric, kPartialSynchrony };
enum class GraphKind : std::uint8_t { kPair, kRing, kClique, kStar, kPath };

const char* to_string(SchedulerKind kind);
const char* to_string(DelayKind kind);
const char* to_string(GraphKind kind);
bool scheduler_from_string(const std::string& name, SchedulerKind* out);
bool delay_from_string(const std::string& name, DelayKind* out);
bool graph_from_string(const std::string& name, GraphKind* out);

struct CrashPlan {
  sim::ProcessId pid = sim::kNoProcess;
  sim::Time at = 0;
};

struct PausePlan {
  sim::ProcessId pid = sim::kNoProcess;
  sim::Time from = 0;
  sim::Time until = 0;
};

struct FuzzConfig {
  std::uint64_t seed = 1;
  TargetKind target = TargetKind::kDining;
  std::uint32_t n = 2;
  std::uint64_t steps = 60000;
  GraphKind graph = GraphKind::kRing;

  SchedulerKind scheduler = SchedulerKind::kRandom;
  std::vector<std::uint64_t> weights;  ///< kWeighted: per-pid speed weights
  std::vector<PausePlan> pauses;       ///< kPausing: stall windows

  DelayKind delay = DelayKind::kUniform;
  sim::Time delay_min = 1;  ///< uniform lo; fixed/geometric unused; PS: delta
  sim::Time delay_max = 8;  ///< uniform hi; fixed: constant; geometric: cap;
                            ///< PS: pre-GST max
  double geo_p = 0.2;       ///< kGeometric success probability
  sim::Time gst = 0;        ///< kPartialSynchrony stabilization time

  std::vector<CrashPlan> crashes;
  std::vector<detect::MistakeWindow> mistakes;  ///< internal <>P mistakes
  sim::Time detector_lag = 20;

  // Scripted-box knobs (scripted & broken targets).
  sim::Time exclusive_from = 0;
  dining::BoxSemantics semantics = dining::BoxSemantics::kLockout;
  std::uint32_t member0_burst = 0;
  sim::Time grant_holdoff = 0;
  /// Member index whose workload client never exits its meals (-1 = none);
  /// the kBrokenForkBased ingredient, also usable for starvation tests.
  std::int32_t never_exit_member = -1;

  // Network adversary (sim/net.hpp) — all off by default, so a default
  // config keeps the paper's reliable-channel model and every pre-adversary
  // run stays bit-identical. The adversary draws from its own generator
  // (derived from `seed`), never the engine's.
  double loss_rate = 0.0;
  double dup_rate = 0.0;
  sim::Time dup_spread = 8;
  std::vector<sim::PartitionWindow> partitions;
  /// Retransmitting channel wrapper (sim::NetConfig::retransmit_every): 0 =
  /// one-shot channels (the v13 regime); > 0 re-offers adversary-eaten
  /// sends every this many ticks, up to retransmit_max attempts. Only
  /// meaningful alongside an adversary (loss or partitions).
  sim::Time retransmit_every = 0;
  std::uint32_t retransmit_max = 16;
};

/// True iff `config` enables any channel adversary (loss, duplication, or a
/// partition) — i.e. leaves the paper's reliable-channel envelope.
bool has_network_adversary(const FuzzConfig& config);

/// True iff `value` can stand for a probability (loss_rate, dup_rate,
/// geo_p): finite and within [0, 1]. Both JSON readers reject anything
/// else, so no accepted config can carry a value the writers cannot render.
bool is_probability(double value);

/// Reads an integer field (n, steps, pids, times, weights): `value` must be
/// a JSON number written as digits only — no sign, fraction, exponent or
/// string — and at most `max`. On failure returns false, leaves *out alone
/// and sets *error (without the field's path). Both JSON readers use it, so
/// n = -3 or steps = 1.5 is an error instead of a wrapped or truncated value.
bool read_unsigned(const util::Json& value, std::uint64_t max,
                   std::uint64_t* out, std::string* error);

/// Reads a pid-or-none field (never_exit_member): -1 (none) or an integer in
/// [0, INT32_MAX], digits only. Same contract as read_unsigned, so 1e10 or
/// 1.7 is an error instead of an undefined or truncated conversion.
bool read_pid_or_none(const util::Json& value, std::int32_t* out,
                      std::string* error);

/// read_unsigned bounded by the destination type.
template <class T>
bool read_unsigned(const util::Json& value, T* out, std::string* error) {
  std::uint64_t wide = 0;
  if (!read_unsigned(value, std::numeric_limits<T>::max(), &wide, error)) {
    return false;
  }
  *out = static_cast<T>(wide);
  return true;
}

/// Largest delay the configured model can draw (margin input for oracles).
sim::Time effective_delay_max(const FuzzConfig& config);

/// The tick by which every eventual property of `config` must have
/// converged: the latest scripted disturbance (mistake window, crash +
/// detection lag, pause, GST, mistake prefix) plus a margin scaled to the
/// delay bound and the box's arbitration knobs. Oracles only count
/// violations at or after this tick; the generator sizes `steps` so a
/// comfortable runway remains after it.
sim::Time convergence_deadline(const FuzzConfig& config);

/// Longest continuous hunger the wait-freedom oracle tolerates on `config`.
sim::Time wait_free_bound(const FuzzConfig& config);

/// Serialize to the .repro JSON object (config fields only).
std::string config_to_json(const FuzzConfig& config, int indent = 2);

/// Parse a config JSON object (as produced by config_to_json). Unknown
/// fields are ignored; missing fields keep their defaults.
bool config_from_json(const std::string& text, FuzzConfig* out,
                      std::string* error);

/// One replayable case: a config plus the expected outcome. `oracle` is
/// the failing oracle's name, or "none" for an expected-clean run; `at` and
/// `detail` pin the failure bit-exactly (empty detail = don't care).
struct ReproCase {
  FuzzConfig config;
  std::string oracle = "none";
  sim::Time at = 0;
  std::string detail;
};

std::string repro_to_json(const ReproCase& repro);
bool repro_from_json(const std::string& text, ReproCase* out,
                     std::string* error);
bool load_repro_file(const std::string& path, ReproCase* out,
                     std::string* error);
bool save_repro_file(const std::string& path, const ReproCase& repro);

}  // namespace wfd::fuzz
