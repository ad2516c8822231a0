// The benchmark's output schema. The last stdout line of a run is one JSON
// object with exactly the keys correct, attempted, failed and metrics; an
// untraced run reports every end-to-end metric, a traced run every
// per-layer metric. The metric lists here must equal BENCHMARK.json's (the
// self-test compares them).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace wfdbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric. What "op" means per workload is in
// README.md: a 2000-run campaign (fuzz-swarm), one scenario pair to both
// verdicts (mc-scenario), one request (serve-mixed).
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"}, {"cpu_ms_per_op", "ms"},
      {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
  };
  return defs;
}

// A layer a workload does not drive reads 0 there (README.md says which
// workload drives which layer).
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"fuzz.sample_us", "us"},
      {"fuzz.normalize_us", "us"},
      {"fuzz.rig_build_us", "us"},
      {"sim.run_ms", "ms"},
      {"sim.ns_per_step", "ns"},
      {"sim.ns_per_message", "ns"},
      {"sim.steps_per_run", "count"},
      {"sim.messages_per_run", "count"},
      {"sim.events_per_step", "ratio"},
      {"fuzz.grade_us", "us"},
      {"fuzz.features_us", "us"},
      {"fuzz.shrink_ms", "ms"},
      {"fuzz.shrink_runs", "count"},
      {"fuzz.shrink_accept_ratio", "ratio"},
      {"fuzz.novel_ratio", "ratio"},
      {"fuzz.failing_ratio", "ratio"},
      {"harness.busy_share", "ratio"},
      {"scenario.parse_us", "us"},
      {"scenario.to_mc_us", "us"},
      {"mc.states", "count"},
      {"mc.transitions", "count"},
      {"mc.levels", "count"},
      {"mc.states_per_s", "1/s"},
      {"mc.cpu_util", "ratio"},
      {"mc.barrier_wait_share", "ratio"},
      {"mc.level_ms_max", "ms"},
      {"mc.seen_bytes_per_state", "B"},
      {"mc.frontier_peak_bytes", "B"},
      {"mc.seen_load_pct", "%"},
      {"serve.spawn_ready_ms", "ms"},
      {"serve.connect_ms", "ms"},
      {"serve.accept_ms", "ms"},
      {"serve.rtt_ms.run", "ms"},
      {"serve.rtt_ms.scenario", "ms"},
      {"serve.rtt_ms.campaign", "ms"},
      {"serve.rtt_ms.hit", "ms"},
      {"serve.first_progress_ms", "ms"},
      {"serve.execute_ms.run", "ms"},
      {"serve.execute_ms.scenario", "ms"},
      {"serve.execute_ms.campaign", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.worker_busy_share", "ratio"},
      {"serve.parse_submit_us", "us"},
      {"serve.cache_key_us", "us"},
      {"util.json_parse_us", "us"},
      {"util.json_write_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"serve.rejected", "count"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.gen_late_ms_p99", "ms"},
      {"serve.samples", "count"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  ///< name -> value
};

/// Render `result` with exactly the metrics of `defs`, in their order.
/// Metrics the workload did not set read 0.
inline std::string result_to_json(const Result& result,
                                  const std::vector<MetricDef>& defs) {
  using wfd::util::Json;
  Json metrics = Json::object();
  for (const MetricDef& def : defs) {
    const auto it = result.metrics.find(def.name);
    Json entry = Json::object();
    entry.set("value", Json::of_double(it == result.metrics.end() ? 0.0
                                                                  : it->second));
    entry.set("unit", Json::of_string(def.unit));
    metrics.set(def.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", Json::of_bool(result.correct));
  out.set("attempted", Json::of_u64(result.attempted));
  out.set("failed", Json::of_u64(result.failed));
  out.set("metrics", std::move(metrics));
  return out.dump();
}

/// Strict reader of a result line: exactly the four top-level keys, and
/// every metric an object of exactly {value, unit}. Used by the self-test.
inline bool result_from_json(const std::string& text, Result* out,
                             std::map<std::string, std::string>* units,
                             std::string* error) {
  using wfd::util::Json;
  Json doc;
  if (!Json::parse(text, &doc, error)) return false;
  const auto fail = [&](const std::string& what) {
    *error = what;
    return false;
  };
  if (doc.kind != Json::Kind::kObject || doc.members.size() != 4) {
    return fail("result must be an object with 4 keys");
  }
  const Json* correct = doc.find("correct");
  const Json* attempted = doc.find("attempted");
  const Json* failed = doc.find("failed");
  const Json* metrics = doc.find("metrics");
  if (correct == nullptr || correct->kind != Json::Kind::kBool ||
      attempted == nullptr || attempted->kind != Json::Kind::kNumber ||
      failed == nullptr || failed->kind != Json::Kind::kNumber ||
      metrics == nullptr || metrics->kind != Json::Kind::kObject) {
    return fail("bad top-level key or type");
  }
  *out = Result{};
  out->correct = correct->boolean;
  out->attempted = attempted->as_u64();
  out->failed = failed->as_u64();
  for (const auto& [name, entry] : metrics->members) {
    const Json* value = entry.find("value");
    const Json* unit = entry.find("unit");
    if (entry.members.size() != 2 || value == nullptr ||
        value->kind != Json::Kind::kNumber || unit == nullptr ||
        unit->kind != Json::Kind::kString) {
      return fail("metric " + name + " must be {value, unit}");
    }
    out->metrics[name] = value->as_double();
    (*units)[name] = unit->str;
  }
  return true;
}

}  // namespace wfdbench
