// Whole-run determinism and golden-trace pinning. Every run is a pure
// function of (configuration, seed): same seed ⇒ byte-identical event trace
// and EngineStats, across all schedulers, before and after crashes. The
// golden constants below were captured from the pre-overhaul engine (the
// per-destination std::priority_queue<InTransit> heap); the shared SoA
// transit store and the masked trace fast path must reproduce them exactly —
// they change the data structure, never the (deliver_at, seq) delivery order
// or the RNG draw sequence.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dining/client.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"

namespace wfd::sim {
namespace {

/// FNV-1a over the full event stream; order- and content-sensitive.
struct TraceHasher {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t events = 0;

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void on_event(const Event& e) {
    mix(e.time);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.pid);
    mix(e.a);
    mix(e.b);
    mix(e.c);
    ++events;
  }
};

struct Fingerprint {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t stats_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

std::uint64_t hash_stats(const Engine& engine) {
  TraceHasher h;
  const EngineStats& s = engine.stats();
  h.mix(s.steps);
  h.mix(s.messages_sent);
  h.mix(s.messages_delivered);
  h.mix(s.messages_dropped);
  h.mix(s.crashes);
  h.mix(engine.now());
  return h.hash;
}

/// Alg. 1/2 extraction over the real wait-free dining box, one crash —
/// the reduction workload of the paper, message- and crash-heavy.
Fingerprint run_reduction_config(std::uint64_t seed) {
  harness::Rig rig(
      harness::RigOptions{.seed = seed, .n = 3, .detector_lag = 25});
  reduce::WaitFreeBoxFactory factory(
      [&rig](ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory,
                                                  reduce::ExtractionOptions{});
  TraceHasher hasher;
  rig.engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.schedule_crash(2, 5000);
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

/// Hygienic dining on a ring with standard clients — fork/token traffic
/// through the default uniform-delay channel.
Fingerprint run_hygienic_config(std::uint64_t seed) {
  harness::Rig rig(harness::RigOptions{.seed = seed, .n = 5});
  auto instance = rig.add_hygienic_dining(10, 1, graph::make_ring(5));
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  TraceHasher hasher;
  rig.engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

// Captured from the pre-overhaul engine (heap-based transit queues) at the
// commit introducing this test; see PR "simulation-core hot-path overhaul".
constexpr Fingerprint kGoldenReduction{3659772812120896702ull, 28985,
                                       13410170420198056445ull};
constexpr Fingerprint kGoldenHygienic{2405967122402567080ull, 25494,
                                      6419710400179810867ull};

TEST(GoldenTrace, ReductionConfigMatchesPreOverhaulEngine) {
  const Fingerprint got = run_reduction_config(22);
  EXPECT_EQ(got.trace_hash, kGoldenReduction.trace_hash);
  EXPECT_EQ(got.events, kGoldenReduction.events);
  EXPECT_EQ(got.stats_hash, kGoldenReduction.stats_hash);
}

TEST(GoldenTrace, HygienicConfigMatchesPreOverhaulEngine) {
  const Fingerprint got = run_hygienic_config(3);
  EXPECT_EQ(got.trace_hash, kGoldenHygienic.trace_hash);
  EXPECT_EQ(got.events, kGoldenHygienic.events);
  EXPECT_EQ(got.stats_hash, kGoldenHygienic.stats_hash);
}

TEST(GoldenTrace, RunsArePureFunctionsOfSeed) {
  EXPECT_EQ(run_reduction_config(22), run_reduction_config(22));
  EXPECT_EQ(run_hygienic_config(3), run_hygienic_config(3));
  EXPECT_NE(run_reduction_config(22), run_reduction_config(23));
}

/// Gossip workload for scheduler determinism: every step sends to the ring
/// successor, so scheduling choices shape the whole trace.
class RingGossip final : public Process {
 public:
  explicit RingGossip(std::uint32_t n) : n_(n) {}
  void on_step(Context& ctx) override {
    ++ticks_;
    ctx.send((ctx.self() + 1) % n_, 1, Payload{1, ticks_, 0, 0});
  }

 private:
  std::uint32_t n_;
  std::uint64_t ticks_ = 0;
};

Fingerprint run_gossip(std::unique_ptr<Scheduler> scheduler,
                       std::uint64_t seed, bool with_crashes) {
  constexpr std::uint32_t n = 6;
  Engine engine({.seed = seed});
  for (std::uint32_t p = 0; p < n; ++p) {
    engine.add_process(std::make_unique<RingGossip>(n));
  }
  engine.set_scheduler(std::move(scheduler));
  if (with_crashes) {
    engine.schedule_crash(1, 500);
    engine.schedule_crash(4, 500);  // same tick: pid order must be stable
    engine.schedule_crash(2, 2000);
  }
  TraceHasher hasher;
  engine.trace().subscribe_kinds(
      kAllEventKinds,
      [&hasher](const Event& e) { hasher.on_event(e); });
  engine.init();
  engine.run(10000);
  return {hasher.hash, hasher.events, hash_stats(engine)};
}

TEST(SchedulerDeterminism, SameSeedSameTraceAcrossAllSchedulers) {
  const auto weights = std::vector<std::uint64_t>{1, 3, 1, 7, 2, 5};
  const std::vector<PausingScheduler::Pause> pauses{{0, 100, 900},
                                                    {3, 2000, 2500}};
  for (const bool crashes : {false, true}) {
    EXPECT_EQ(run_gossip(std::make_unique<RandomScheduler>(), 11, crashes),
              run_gossip(std::make_unique<RandomScheduler>(), 11, crashes));
    EXPECT_EQ(
        run_gossip(std::make_unique<RoundRobinScheduler>(), 11, crashes),
        run_gossip(std::make_unique<RoundRobinScheduler>(), 11, crashes));
    EXPECT_EQ(run_gossip(std::make_unique<WeightedScheduler>(weights), 11,
                         crashes),
              run_gossip(std::make_unique<WeightedScheduler>(weights), 11,
                         crashes));
    EXPECT_EQ(
        run_gossip(std::make_unique<PausingScheduler>(pauses), 11, crashes),
        run_gossip(std::make_unique<PausingScheduler>(pauses), 11, crashes));
  }
}

}  // namespace
}  // namespace wfd::sim
