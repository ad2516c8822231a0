// mc-scenario: the scenario route to the model checker, as a user drives it:
// scenario text -> parse_scenario -> to_mc_instance -> McInstance::run, with
// the adapter's defaults (no expected_states hint, no reduction, threads =
// hardware concurrency). One op is a pair of scenarios, both n = 3
// extraction (two composed pairs in one state):
//
//  * mistake prefix + crash: kArbitrary box with crash nondeterminism,
//    8,340,544 states / 37,128,128 transitions (= 2888^2, 2*2888*6428);
//  * converged: kExclusive with the accuracy and deadlock checks on,
//    516,961 states / 2,195,826 transitions (= 719^2, 2*719*1527).
//
// The seen-set, the frontier and the level barrier do the work; no
// simulator runs. Without a hint the engine picks the classic seen table,
// which is what sets peak RSS here.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"
#include "stats.hpp"

namespace wfdbench {
namespace {

namespace scenario = wfd::scenario;

constexpr int kSetupRepeats = 200;

struct Expected {
  std::uint64_t states;
  std::uint64_t transitions;
};
constexpr Expected kPrefixCrash{8340544, 37128128};
constexpr Expected kConverged{516961, 2195826};

// Scenario texts of op `op`. The seed draws the simulator-side fields (run
// seed, steps, delays, where the prefix ends, who crashes when); the
// checker's abstraction, hence its counts, does not depend on them.
std::vector<std::string> scenario_texts(std::uint64_t seed, std::uint64_t op) {
  std::uint64_t state = mix(seed ^ mix(op + 1));
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    state = mix(state);
    return lo + state % (hi - lo + 1);
  };
  const auto common = [&](const char* name) {
    return std::string("{\"schema_version\":1,\"name\":\"") + name +
           "\",\"seed\":" + std::to_string(draw(1, 1u << 30)) +
           ",\"target\":\"extraction\",\"topology\":{\"graph\":\"ring\","
           "\"n\":3},\"steps\":" +
           std::to_string(draw(40000, 90000)) +
           ",\"scheduler\":{\"kind\":\"random\"},\"timing\":{\"delay\":"
           "\"uniform\",\"min\":1,\"max\":" +
           std::to_string(draw(2, 8)) + "}";
  };
  const std::string expect = ",\"expect\":{\"mc\":{\"verdict\":\"clean\"}}}";
  std::string prefix_crash = common("bench-prefix-crash") +
                             ",\"box\":{\"exclusive_from\":" +
                             std::to_string(draw(500, 9000)) +
                             "},\"crashes\":[{\"pid\":" +
                             std::to_string(draw(0, 2)) + ",\"at\":" +
                             std::to_string(draw(1000, 30000)) + "}]" + expect;
  std::string converged = common("bench-converged") + expect;
  return {prefix_crash, converged};
}

scenario::McInstance adapt(const std::string& text) {
  scenario::Scenario parsed;
  std::string error;
  {
    Span s("scenario.parse", 0);
    if (!scenario::parse_scenario(text, &parsed, &error)) {
      throw std::runtime_error("generated scenario rejected: " + error);
    }
  }
  scenario::McInstance instance;
  {
    Span s("scenario.to_mc", 0);
    if (!scenario::to_mc_instance(parsed, &instance, &error)) {
      throw std::runtime_error("mc adapter rejected scenario: " + error);
    }
  }
  return instance;
}

struct OpResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t states = 0;
  std::uint64_t failed_checks = 0;
  std::vector<wfd::mc::CheckResult> checks;
};

OpResult run_op(const std::vector<std::string>& texts,
                wfd::obs::Registry* metrics, wfd::obs::SpanLog* spans) {
  OpResult out;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  for (const std::string& text : texts) {
    scenario::McInstance instance = adapt(text);
    instance.check.metrics = metrics;
    instance.check.spans = spans;
    Span s("mc.check", 0);
    out.checks.push_back(instance.run());
  }
  out.wall_s = now_s() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  const Expected expected[] = {kPrefixCrash, kConverged};
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const wfd::mc::CheckResult& r = out.checks[i];
    out.states += r.states;
    if (!r.ok() || r.states != expected[i].states ||
        r.transitions != expected[i].transitions) {
      std::fprintf(stderr,
                   "mc-scenario: check %zu: verdict %s, %llu states / %llu "
                   "transitions, expected ok, %llu / %llu\n",
                   i, r.ok() ? "ok" : "violation",
                   static_cast<unsigned long long>(r.states),
                   static_cast<unsigned long long>(r.transitions),
                   static_cast<unsigned long long>(expected[i].states),
                   static_cast<unsigned long long>(expected[i].transitions));
      ++out.failed_checks;
    }
  }
  return out;
}

}  // namespace

Result run_mc_scenario(const Context& ctx) {
  const double threads =
      std::max(1u, std::thread::hardware_concurrency());

  // Set-up: scenario text to ready-to-run checker instances (parse +
  // adapter), microseconds per op, so repeated and the median kept.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::vector<std::string> texts = scenario_texts(ctx.seed, rep);
    const double t0 = now_s();
    for (const std::string& text : texts) (void)adapt(text);
    setup_s.push_back(now_s() - t0);
  }

  // One untimed warm-up op: the first check in a process can run up to
  // 1.7x slower while the allocator first maps the seen table. Its peak RSS
  // is the figure reported: what one check costs a fresh process. Later
  // ops in the same process peak higher, by a varying amount, as the heap
  // keeps memory between checks.
  const OpResult warm = run_op(scenario_texts(ctx.seed, ~0ull), nullptr, nullptr);
  const double peak_rss = self_peak_rss_mb();
  std::uint64_t attempted = warm.checks.size();
  std::uint64_t failed = warm.failed_checks;

  std::vector<double> wall_ms;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t states = 0;
  const double window_start = now_s();
  for (std::uint64_t op = 0;
       op == 0 || now_s() - window_start < ctx.seconds; ++op) {
    const OpResult r = run_op(scenario_texts(ctx.seed, op), nullptr, nullptr);
    wall_ms.push_back(r.wall_s * 1e3);
    wall_s += r.wall_s;
    cpu_s += r.cpu_s;
    states += r.states;
    attempted += r.checks.size();
    failed += r.failed_checks;
  }

  Result out;
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["peak_rss_mb"] = peak_rss;
  out.metrics["throughput_per_s"] = static_cast<double>(states) / wall_s;
  out.metrics["cpu_ms_per_op"] =
      cpu_s * 1e3 / static_cast<double>(wall_ms.size());
  out.metrics["latency_p50_ms"] = median(wall_ms);
  out.metrics["latency_p99_ms"] = percentile(wall_ms, 99);
  std::string walls;
  for (double w : wall_ms) {
    char text[24];
    std::snprintf(text, sizeof text, " %.0f", w);
    walls += text;
  }
  std::fprintf(stderr, "mc-scenario: %zu ops, peak RSS %.0f MB, op walls (ms):%s\n",
               wall_ms.size(), peak_rss, walls.c_str());

  if (ctx.traced) {
    // One more op with spans on and the engine's registry and span log
    // bound (neither changes the exploration).
    wfd::obs::Registry registry;
    wfd::obs::SpanLog spans;
    Tracer::instance().enable();
    const OpResult r =
        run_op(scenario_texts(ctx.seed, wall_ms.size()), &registry, &spans);
    Tracer::instance().disable();
    attempted += r.checks.size();
    failed += r.failed_checks;
    const auto sum = Tracer::instance().summarize();
    const wfd::obs::Snapshot snap = registry.snapshot();
    std::uint64_t transitions = 0;
    std::uint64_t seen_bytes = 0;
    std::uint64_t frontier_peak = 0;
    for (const wfd::mc::CheckResult& c : r.checks) {
      transitions += c.transitions;
      seen_bytes += c.seen_bytes;
      frontier_peak = std::max(frontier_peak, c.frontier_peak_bytes);
    }
    // Level spans only: neither regime's model has an analyze pass.
    double level_ms_max = 0;
    for (const wfd::obs::Span& s : spans.spans) {
      level_ms_max = std::max(level_ms_max, s.duration_ms);
    }
    const wfd::obs::Snapshot::Histogram* barrier =
        snap.find_histogram("mc.barrier_wait_us");
    const wfd::obs::Snapshot::Gauge* load = snap.find_gauge("mc.seen_load_pct");
    out.metrics["scenario.parse_us"] = mean_us(sum, "scenario.parse");
    out.metrics["scenario.to_mc_us"] = mean_us(sum, "scenario.to_mc");
    out.metrics["mc.states"] = static_cast<double>(r.states);
    out.metrics["mc.transitions"] = static_cast<double>(transitions);
    out.metrics["mc.levels"] =
        static_cast<double>(snap.counter_value("mc.levels"));
    out.metrics["mc.states_per_s"] = static_cast<double>(r.states) / r.wall_s;
    out.metrics["mc.cpu_util"] = cpu_s / (threads * wall_s);
    out.metrics["mc.barrier_wait_share"] =
        barrier == nullptr ? 0.0
                           : static_cast<double>(barrier->sum) /
                                 (threads * r.wall_s * 1e6);
    out.metrics["mc.level_ms_max"] = level_ms_max;
    out.metrics["mc.seen_bytes_per_state"] =
        static_cast<double>(seen_bytes) / static_cast<double>(r.states);
    out.metrics["mc.frontier_peak_bytes"] = static_cast<double>(frontier_peak);
    out.metrics["mc.seen_load_pct"] = load == nullptr ? 0.0 : load->value;
    out.metrics["trace.overhead_pct"] =
        (r.wall_s * 1e3 / median(wall_ms) - 1.0) * 100.0;
  }
  out.attempted = attempted;
  out.failed = failed;
  out.correct = failed == 0;
  return out;
}

}  // namespace wfdbench
