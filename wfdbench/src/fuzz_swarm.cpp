// fuzz-swarm: the bug-hunting use. Back-to-back fuzz::run_fuzz_campaign
// calls over the `all` target pool (the legal targets plus the two broken
// ones, so every campaign finds and shrinks real failures), shrink on, a
// fixed run count, threads = nproc. The simulator, the oracles and the
// shrinker do nearly all the work; mc and serve do none.
//
// Check: campaign 0 is replayed call by call through the same public
// functions run_config is made of (sample_config, normalize, ConfigRun,
// advance_to, grade, run_features) and shrink_case, on harness::run_campaign
// in the campaign's own batch sizes. Its totals must equal the campaign's,
// and every repro of every campaign must pass replay_case. In a traced run
// that replay carries the spans the per-layer metrics come from.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "harness/campaign.hpp"
#include "stats.hpp"

namespace wfdbench {
namespace {

namespace fuzz = wfd::fuzz;

constexpr std::uint64_t kRunsPerCampaign = 2000;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kEventSampleRuns = 16;

struct ReplayTotals {
  std::uint64_t executed = 0;
  std::uint64_t failing = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t corpus_size = 0;
  std::uint64_t novel = 0;
  std::uint64_t shrink_runs = 0;
  std::uint64_t shrink_attempts = 0;
  std::uint64_t shrink_accepted = 0;
  std::uint64_t repros = 0;
  double wall_s = 0;
  double busy_s = 0;      ///< sum of harness job durations
  double capacity_s = 0;  ///< sum over batches of pool threads x batch wall
};

fuzz::CampaignOptions campaign_options(std::uint64_t master_seed, int threads,
                                       const std::vector<fuzz::TargetKind>& pool) {
  fuzz::CampaignOptions options;
  options.master_seed = master_seed;
  options.runs = kRunsPerCampaign;
  options.threads = threads;
  options.targets = pool;
  options.shrink = true;
  return options;
}

struct JobOut {
  fuzz::FuzzConfig raw;
  fuzz::RunResult result;
  double busy_s = 0;
};

// Mirrors run_fuzz_campaign's fixed-run path: same batch sizes, same
// accounting order, same choice of failures to shrink.
ReplayTotals replay_campaign(const fuzz::CampaignOptions& options) {
  ReplayTotals totals;
  const double start = now_s();
  Span campaign_span("fuzz.campaign", options.master_seed);
  const std::size_t batch_size = std::max<std::size_t>(
      8, static_cast<std::size_t>(options.threads) * 4);
  std::unordered_set<std::uint64_t> corpus;
  std::set<std::pair<std::string, std::string>> shrink_keys;
  std::vector<fuzz::FuzzConfig> to_shrink;

  for (std::uint64_t index = 0; index < options.runs; index += batch_size) {
    const std::size_t count =
        std::min<std::size_t>(batch_size, options.runs - index);
    std::vector<std::uint64_t> ids(count);
    for (std::size_t i = 0; i < count; ++i) ids[i] = index + i;
    const double batch_start = now_s();
    Span batch_span("harness.batch", index);
    const std::uint32_t batch_id = batch_span.id();
    const std::vector<JobOut> outs = wfd::harness::run_campaign(
        ids,
        [&](std::uint64_t i) {
          const double job_start = now_s();
          JobOut out;
          {
            Span job("harness.job", i, batch_id);
            {
              Span s("fuzz.sample", i);
              out.raw = fuzz::sample_config(options.master_seed, i,
                                            options.targets);
            }
            fuzz::FuzzConfig config;
            {
              Span s("fuzz.normalize", i);
              config = fuzz::normalize(out.raw);
            }
            std::unique_ptr<fuzz::ConfigRun> run;
            {
              Span s("fuzz.rig_build", i);
              run = std::make_unique<fuzz::ConfigRun>(config);
            }
            {
              Span s("sim.run", i);
              run->advance_to(config.steps);
              run->fill_capture();
            }
            {
              Span s("fuzz.grade", i);
              out.result = run->grade(config);
            }
            {
              Span s("fuzz.features", i);
              (void)fuzz::run_features(config, out.result);
            }
            run.reset();
          }
          out.busy_s = now_s() - job_start;
          return out;
        },
        options.threads);
    totals.capacity_s +=
        (now_s() - batch_start) *
        wfd::harness::campaign_threads(options.threads, count);

    for (std::size_t i = 0; i < outs.size(); ++i) {
      const fuzz::RunResult& run = outs[i].result;
      totals.busy_s += outs[i].busy_s;
      ++totals.executed;
      totals.total_steps += run.stats.steps;
      totals.total_messages += run.stats.messages_sent;
      if (corpus.insert(run.signature).second) ++totals.novel;
      if (!run.ok()) {
        ++totals.failing;
        const std::pair<std::string, std::string> key{
            fuzz::to_string(outs[i].raw.target), run.primary()->oracle};
        if (shrink_keys.insert(key).second &&
            to_shrink.size() < options.max_repros) {
          to_shrink.push_back(outs[i].raw);
        }
      }
    }
  }
  totals.corpus_size = corpus.size();

  for (std::size_t k = 0; k < to_shrink.size(); ++k) {
    Span s("fuzz.shrink", k);
    const fuzz::ShrinkOutcome outcome =
        fuzz::shrink_case(to_shrink[k], options.max_shrink_attempts);
    totals.shrink_runs += outcome.runs;
    totals.shrink_attempts += outcome.attempts;
    totals.shrink_accepted += outcome.accepted;
    if (outcome.reproduced) ++totals.repros;
  }
  totals.wall_s = now_s() - start;
  return totals;
}

// Observer-dispatch load: events per step over a few runs with the engine's
// per-kind counters bound (untimed; counting retains the trace).
double events_per_step(const fuzz::CampaignOptions& options) {
  wfd::obs::Registry registry;
  std::uint64_t steps = 0;
  for (std::uint64_t i = 0; i < kEventSampleRuns; ++i) {
    fuzz::RunCapture capture;
    capture.metrics = &registry;
    const fuzz::RunResult result = fuzz::run_config(
        fuzz::sample_config(options.master_seed, i, options.targets), capture);
    steps += result.stats.steps;
  }
  std::uint64_t events = 0;
  for (const auto& counter : registry.snapshot().counters) {
    if (counter.name.rfind("sim.events.", 0) == 0 &&
        counter.name != "sim.events.truncated") {
      events += counter.value;
    }
  }
  return steps == 0 ? 0.0
                    : static_cast<double>(events) / static_cast<double>(steps);
}

bool expect_equal(const char* what, std::uint64_t campaign,
                  std::uint64_t replay) {
  if (campaign == replay) return true;
  std::fprintf(stderr, "fuzz-swarm: %s differs: campaign %llu, replay %llu\n",
               what, static_cast<unsigned long long>(campaign),
               static_cast<unsigned long long>(replay));
  return false;
}

}  // namespace

Result run_fuzz_swarm(const Context& ctx) {
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<fuzz::TargetKind> pool;
  std::string error;
  if (!fuzz::resolve_target_pool({"all"}, &pool, &error)) {
    throw std::runtime_error(error);
  }
  const auto master_seed = [&](std::uint64_t k) {
    return mix(ctx.seed * 0x100000001b3ull + k);
  };

  // Set-up: the campaign plan, i.e. the target pool and the configurations
  // the campaign will sample.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = now_s();
    std::vector<fuzz::TargetKind> plan_pool;
    fuzz::resolve_target_pool({"all"}, &plan_pool, &error);
    std::vector<fuzz::FuzzConfig> plan;
    plan.reserve(kRunsPerCampaign);
    for (std::uint64_t i = 0; i < kRunsPerCampaign; ++i) {
      plan.push_back(fuzz::sample_config(master_seed(0), i, plan_pool));
    }
    setup_s.push_back(now_s() - t0);
  }

  // One untimed warm-up campaign: on some seeds the first campaign in a
  // process runs up to 40% slower while the heap grows to its working size.
  fuzz::run_fuzz_campaign(campaign_options(master_seed(~0ull), threads, pool));

  // Timed window: whole campaigns until --seconds have passed.
  std::vector<fuzz::CampaignResult> campaigns;
  std::vector<double> wall_s, rss_mb;
  double cpu_s = 0;
  std::uint64_t graded = 0;
  std::uint64_t failed = 0;
  const double window_start = now_s();
  while (campaigns.empty() || now_s() - window_start < ctx.seconds) {
    const fuzz::CampaignOptions options =
        campaign_options(master_seed(campaigns.size()), threads, pool);
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    fuzz::CampaignResult result;
    try {
      result = fuzz::run_fuzz_campaign(options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fuzz-swarm: campaign threw: %s\n", e.what());
      failed += options.runs;
      result.stats.executed = options.runs;
    }
    wall_s.push_back(now_s() - t0);
    cpu_s += process_cpu_s() - cpu0;
    rss_mb.push_back(self_peak_rss_mb());
    graded += result.stats.executed + result.stats.shrink_runs;
    campaigns.push_back(std::move(result));
  }
  const double peak_rss = median(rss_mb);

  // Checks (after the window): replay campaign 0, replay every repro.
  Result out;
  const fuzz::CampaignOptions first = campaign_options(master_seed(0), threads, pool);
  const ReplayTotals replay = replay_campaign(first);
  ReplayTotals traced;
  if (ctx.traced) {
    // The same replay with spans on; the wall-time difference is the
    // tracing overhead.
    Tracer::instance().enable();
    traced = replay_campaign(first);
    Tracer::instance().disable();
  }
  const auto matches = [&](const ReplayTotals& r) {
    const fuzz::CampaignStats& stats = campaigns.front().stats;
    bool same = true;
    same &= expect_equal("executed", stats.executed, r.executed);
    same &= expect_equal("failing", stats.failing, r.failing);
    same &= expect_equal("total_steps", stats.total_steps, r.total_steps);
    same &= expect_equal("corpus_size", stats.corpus_size, r.corpus_size);
    same &= expect_equal("shrink_runs", stats.shrink_runs, r.shrink_runs);
    same &= expect_equal("repros", campaigns.front().repros.size(), r.repros);
    return same;
  };
  if (!matches(replay)) ++failed;
  if (ctx.traced && !matches(traced)) ++failed;
  for (const fuzz::CampaignResult& campaign : campaigns) {
    for (const fuzz::ReproCase& repro : campaign.repros) {
      std::string why;
      if (!fuzz::replay_case(repro, &why)) {
        std::fprintf(stderr, "fuzz-swarm: repro replay failed: %s\n",
                     why.c_str());
        ++failed;
      }
    }
  }
  out.attempted = graded;
  out.failed = failed;
  out.correct = failed == 0;

  double total_wall = 0;
  for (double w : wall_s) total_wall += w;
  std::vector<double> wall_ms;
  for (double w : wall_s) wall_ms.push_back(w * 1e3);
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["peak_rss_mb"] = peak_rss;
  out.metrics["throughput_per_s"] = static_cast<double>(graded) / total_wall;
  out.metrics["cpu_ms_per_op"] = cpu_s * 1e3 / static_cast<double>(graded);
  out.metrics["latency_p50_ms"] = median(wall_ms);
  out.metrics["latency_p99_ms"] = percentile(wall_ms, 99);
  std::string walls;
  for (double w : wall_s) {
    char text[24];
    std::snprintf(text, sizeof text, " %.3f", w);
    walls += text;
  }
  std::fprintf(stderr,
               "fuzz-swarm: %zu campaigns x %llu runs, %llu graded runs, "
               "%.1f s wall, campaign walls (s):%s; campaign 0 replay %.3f s\n",
               campaigns.size(),
               static_cast<unsigned long long>(kRunsPerCampaign),
               static_cast<unsigned long long>(graded), total_wall,
               walls.c_str(), replay.wall_s);

  if (ctx.traced) {
    const auto sum = Tracer::instance().summarize();
    const double runs = static_cast<double>(replay.executed);
    const double sim_ns = sum.count("sim.run") ? sum.at("sim.run").total_us * 1e3 : 0;
    out.metrics["fuzz.sample_us"] = mean_us(sum, "fuzz.sample");
    out.metrics["fuzz.normalize_us"] = mean_us(sum, "fuzz.normalize");
    out.metrics["fuzz.rig_build_us"] = mean_us(sum, "fuzz.rig_build");
    out.metrics["sim.run_ms"] = mean_us(sum, "sim.run") / 1e3;
    out.metrics["sim.ns_per_step"] =
        sim_ns / static_cast<double>(replay.total_steps);
    out.metrics["sim.ns_per_message"] =
        sim_ns / static_cast<double>(replay.total_messages);
    out.metrics["sim.steps_per_run"] =
        static_cast<double>(replay.total_steps) / runs;
    out.metrics["sim.messages_per_run"] =
        static_cast<double>(replay.total_messages) / runs;
    out.metrics["sim.events_per_step"] = events_per_step(first);
    out.metrics["fuzz.grade_us"] = mean_us(sum, "fuzz.grade");
    out.metrics["fuzz.features_us"] = mean_us(sum, "fuzz.features");
    out.metrics["fuzz.shrink_ms"] = mean_us(sum, "fuzz.shrink") / 1e3;
    out.metrics["fuzz.shrink_runs"] = static_cast<double>(replay.shrink_runs);
    out.metrics["fuzz.shrink_accept_ratio"] =
        replay.shrink_attempts == 0
            ? 0.0
            : static_cast<double>(replay.shrink_accepted) /
                  static_cast<double>(replay.shrink_attempts);
    out.metrics["fuzz.novel_ratio"] = static_cast<double>(replay.novel) / runs;
    out.metrics["fuzz.failing_ratio"] =
        static_cast<double>(replay.failing) / runs;
    out.metrics["harness.busy_share"] = replay.busy_s / replay.capacity_s;
    out.metrics["trace.overhead_pct"] =
        (traced.wall_s / replay.wall_s - 1.0) * 100.0;
  }
  return out;
}

}  // namespace wfdbench
