// E16 — simulator throughput. Measures raw engine speed (steps/sec and
// delivered messages/sec) across process count, delay spread, scheduler,
// trace on/off, and two workloads:
//
//   gossip  every `burst_period`-th scheduled step sends one heartbeat to
//           each of `fanout` ring neighbors — sustained transit-queue
//           traffic, so the row mixes engine cost with the intrinsic
//           per-message cost (RNG draw, message stores, virtual dispatch)
//           that any engine pays;
//   floor   no messaging at all — isolates the per-step engine machinery
//           (scheduler pick, crash bookkeeping, receive-phase probe, trace
//           fast path), which is exactly what the hot-path overhaul targets.
//
// This is the perf-trajectory anchor for the simulation core: run it before
// and after any hot-path change and diff the JSON rows (see BENCH_e16.json
// at the repo root for the recorded baseline). The headline configurations
// are n=16 / uniform delay 1..8 / random scheduler / trace off, one row per
// workload.
//
// Usage: bench_e16_sim_throughput [--quick] [--steps N] [--seeds A[:B]]
//                                 [--json out.json]
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace {

using namespace wfd;

/// Heartbeat gossip: every `burst_period`-th step, send one message to each
/// of `fanout` ring successors. The period keeps the per-channel arrival
/// rate below the engine's one-message-per-sender-per-step delivery bound,
/// so queues stay in steady state and the bench measures per-step cost, not
/// backlog pathology (schedulers with skewed rates need a longer period:
/// a receiver stepping R times slower than a sender sees R times the
/// arrivals per visit).
class GossipProcess final : public sim::Process {
 public:
  GossipProcess(std::uint32_t n, std::uint32_t fanout,
                std::uint32_t burst_period)
      : n_(n), fanout_(fanout), burst_period_(burst_period) {}

  void on_message(sim::Context&, const sim::Message& msg) override {
    received_ += 1 + (msg.payload.a & 0);  // consume the payload
  }

  void on_step(sim::Context& ctx) override {
    ++ticks_;
    if (ticks_ % burst_period_ != 0) return;
    for (std::uint32_t k = 1; k <= fanout_; ++k) {
      const sim::ProcessId peer = (ctx.self() + k) % n_;
      ctx.send(peer, /*port=*/1, sim::Payload{1, ticks_, 0, 0});
    }
  }

  std::uint64_t received() const { return received_; }

 private:
  std::uint32_t n_;
  std::uint32_t fanout_;
  std::uint32_t burst_period_;
  std::uint64_t ticks_ = 0;
  std::uint64_t received_ = 0;
};

/// Step-overhead floor workload: processes that never send. What remains is
/// the engine's own per-step machinery.
class IdleProcess final : public sim::Process {
 public:
  void on_message(sim::Context&, const sim::Message&) override {}
  void on_step(sim::Context&) override { ++ticks_; }

 private:
  std::uint64_t ticks_ = 0;
};

struct DelaySpec {
  const char* name;
  sim::Time min = 1;
  sim::Time max = 1;
  bool geometric = false;  ///< heavy tail: exercises the far-future band
};

struct RunResult {
  double seconds = 0;
  std::uint64_t steps = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events_seen = 0;
};

std::unique_ptr<sim::DelayModel> make_delay(const DelaySpec& spec) {
  if (spec.geometric) {
    return std::make_unique<sim::GeometricDelay>(0.05, spec.max);
  }
  return std::make_unique<sim::UniformDelay>(spec.min, spec.max);
}

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name,
                                               std::uint32_t n) {
  if (name == "round_robin") return std::make_unique<sim::RoundRobinScheduler>();
  if (name == "weighted") {
    std::vector<std::uint64_t> weights;
    for (std::uint32_t p = 0; p < n; ++p) weights.push_back(1 + p % 7);
    return std::make_unique<sim::WeightedScheduler>(std::move(weights));
  }
  return std::make_unique<sim::RandomScheduler>();
}

RunResult run_config(const std::string& workload, std::uint32_t n,
                     const DelaySpec& delay, const std::string& scheduler,
                     bool trace_on, std::uint64_t steps, std::uint64_t seed,
                     obs::Registry* metrics = nullptr) {
  sim::Engine engine({.seed = seed, .metrics = metrics});
  const std::uint32_t fanout = n - 1 < 8u ? n - 1 : 8u;
  // Weighted scheduling skews relative speeds up to 7x, so its stable burst
  // period is longer (see GossipProcess).
  const std::uint32_t burst_period = scheduler == "weighted" ? 16 : 2;
  for (std::uint32_t p = 0; p < n; ++p) {
    if (workload == "floor") {
      engine.add_process(std::make_unique<IdleProcess>());
    } else {
      engine.add_process(
          std::make_unique<GossipProcess>(n, fanout, burst_period));
    }
  }
  engine.set_delay_model(make_delay(delay));
  engine.set_scheduler(make_scheduler(scheduler, n));

  RunResult result;
  if (trace_on) {
    engine.trace().subscribe_kinds(
        sim::kAllEventKinds,
        [&result](const sim::Event&) { ++result.events_seen; });
  }
  engine.init();
  engine.run(steps / 10);  // warmup: fill the transit queues to steady state

  const auto start = std::chrono::steady_clock::now();
  result.steps = engine.run(steps);
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.delivered = engine.stats().messages_delivered;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfd::bench;

  bool quick = false;
  bool steps_given = false;
  std::uint64_t steps = 2'000'000;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--steps" && i + 1 < argc) {
      steps = std::strtoull(argv[++i], nullptr, 10);
      steps_given = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const CliOptions options =
      parse_cli(static_cast<int>(args.size()), args.data(), "bench_e16");
  if (steps_given && steps == 0) {
    std::fprintf(stderr,
                 "bench_e16: --steps requires a positive integer\n"
                 "usage: bench_e16_sim_throughput [--quick] [--steps N] "
                 "[--seeds A[:B]] [--json FILE]\n");
    return 2;
  }
  // --quick shrinks the grid to the headline configs and, unless --steps was
  // given explicitly, the run length too (the perf-smoke ctest entry).
  if (quick && !steps_given) steps = 200'000;

  banner("E16 — simulator throughput",
         "Claim: the simulation core sustains high steps/sec across process "
         "counts, delay spreads, schedulers and trace settings; this bench "
         "anchors the perf trajectory of the hot path.");

  const std::vector<std::uint32_t> ns =
      quick ? std::vector<std::uint32_t>{16}
            : std::vector<std::uint32_t>{4, 16, 64, 256};
  const std::vector<DelaySpec> delays =
      quick ? std::vector<DelaySpec>{{"uniform_1_8", 1, 8}}
            : std::vector<DelaySpec>{{"uniform_1_2", 1, 2},
                                     {"uniform_1_8", 1, 8},
                                     {"uniform_1_64", 1, 64},
                                     {"geometric_tail_2048", 1, 2048, true}};
  const std::vector<std::string> schedulers =
      quick ? std::vector<std::string>{"random"}
            : std::vector<std::string>{"random", "round_robin", "weighted"};

  const std::uint64_t seed = options.seeds(0x16).front();
  ShapeCheck check;
  JsonRows rows;
  double headline_gossip = 0;
  double headline_floor = 0;

  std::printf("%8s %6s %22s %12s %6s %12s %14s %14s\n", "workload", "n",
              "delay", "scheduler", "trace", "steps", "steps/sec", "msgs/sec");
  for (const std::string workload : {"gossip", "floor"}) {
    // The floor workload sends nothing, so the delay axis is meaningless
    // there; keep the canonical spread only.
    const std::vector<DelaySpec> workload_delays =
        workload == "floor" ? std::vector<DelaySpec>{{"uniform_1_8", 1, 8}}
                            : delays;
    for (const std::uint32_t n : ns) {
      for (const DelaySpec& delay : workload_delays) {
        for (const std::string& scheduler : schedulers) {
          for (const bool trace_on : {false, true}) {
            if (quick && trace_on) continue;
            const RunResult r = run_config(workload, n, delay, scheduler,
                                           trace_on, steps, seed);
            const double sps = static_cast<double>(r.steps) / r.seconds;
            const double mps = static_cast<double>(r.delivered) / r.seconds;
            std::printf("%8s %6u %22s %12s %6s %12llu %14.0f %14.0f\n",
                        workload.c_str(), n, delay.name, scheduler.c_str(),
                        trace_on ? "on" : "off",
                        static_cast<unsigned long long>(r.steps), sps, mps);
            check.expect(r.steps == steps, "run executed all requested steps");
            check.expect(workload == "floor" || r.delivered > 0,
                         "gossip workload delivered messages");
            check.expect(!trace_on || r.events_seen > 0,
                         "trace-on run fed its observer");
            if (n == 16 && !trace_on && scheduler == "random" &&
                std::string(delay.name) == "uniform_1_8") {
              (workload == "floor" ? headline_floor : headline_gossip) = sps;
            }
            rows.begin_row();
            rows.field("bench", "e16_sim_throughput")
                .field("workload", workload)
                .field("n", n)
                .field("delay", delay.name)
                .field("scheduler", scheduler)
                .field("trace", trace_on)
                .field("metrics", false)
                .field("seed", seed)
                .field("steps", r.steps)
                .field("seconds", r.seconds)
                .field("steps_per_sec", sps)
                .field("messages_per_sec", mps);
          }
        }
      }
    }
  }

  if (headline_gossip > 0) {
    std::printf(
        "\nheadline gossip (n=16, uniform 1..8, random, trace off): %.0f "
        "steps/sec\n",
        headline_gossip);
  }
  if (headline_floor > 0) {
    std::printf(
        "headline floor  (n=16, random, trace off, no messaging): %.0f "
        "steps/sec\n",
        headline_floor);
  }
  check.expect(headline_gossip > 0 && headline_floor > 0,
               "both headline configurations were measured");

  // E19: metrics-registry overhead on the headline configs. Same run with a
  // live obs::Registry attached; the row carries the snapshot so the JSON
  // output doubles as a registry-integration check (sim.steps must equal the
  // executed step count).
  std::printf("\nmetrics-on overhead (headline configs):\n");
  for (const std::string workload : {"gossip", "floor"}) {
    obs::Registry registry;
    const RunResult r = run_config(workload, 16, {"uniform_1_8", 1, 8},
                                   "random", /*trace_on=*/false, steps, seed,
                                   &registry);
    const double sps = static_cast<double>(r.steps) / r.seconds;
    const double baseline =
        workload == "floor" ? headline_floor : headline_gossip;
    const double overhead_pct = baseline > 0 ? (baseline / sps - 1.0) * 100.0
                                             : 0.0;
    std::printf("  %8s: %14.0f steps/sec (baseline %14.0f, %+.2f%%)\n",
                workload.c_str(), sps, baseline, overhead_pct);
    const obs::Snapshot snap = registry.snapshot();
    // The warmup phase streams into the registry too, so the counter covers
    // warmup + timed steps.
    check.expect(snap.counter_value("sim.steps") >= r.steps,
                 "sim.steps counter covers the executed steps");
    check.expect(workload == "floor" ||
                     snap.counter_value("sim.delivered") >= r.delivered,
                 "sim.delivered counter covers the delivered messages");
    rows.begin_row();
    rows.field("bench", "e16_sim_throughput")
        .field("workload", workload)
        .field("n", 16)
        .field("delay", "uniform_1_8")
        .field("scheduler", "random")
        .field("trace", false)
        .field("metrics", true)
        .field("seed", seed)
        .field("steps", r.steps)
        .field("seconds", r.seconds)
        .field("steps_per_sec", sps)
        .field("metrics_overhead_pct", overhead_pct)
        .field_json("registry", snap.to_json());
  }

  if (!options.json_path.empty()) {
    check.expect(rows.write_file(options.json_path), "JSON written");
  }
  return check.finish("E16");
}
