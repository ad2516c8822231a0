// Trace tooling tests: filtered dumps, delay statistics, diner timelines.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "sim/trace_tools.hpp"

namespace wfd::sim {
namespace {

using harness::Rig;
using harness::RigOptions;

class Chatter final : public Process {
 public:
  explicit Chatter(ProcessId peer) : peer_(peer) {}
  void on_step(Context& ctx) override {
    if (++count_ % 3 == 0) ctx.send(peer_, 0, Payload{1, 0, 0, 0});
  }

 private:
  ProcessId peer_;
  std::uint64_t count_ = 0;
};

TEST(TraceWriter, DumpsAndFilters) {
  Engine engine(EngineConfig{.seed = 1, .trace_capacity = 100000});
  engine.add_process(std::make_unique<Chatter>(1));
  engine.add_process(std::make_unique<Chatter>(0));
  engine.init();
  engine.run(300);

  std::ostringstream all;
  const std::size_t total =
      TraceWriter::write(all, engine.trace().events());
  EXPECT_GT(total, 300u);
  EXPECT_NE(all.str().find("send"), std::string::npos);

  std::ostringstream sends_only;
  const std::size_t sends = TraceWriter::write(
      sends_only, engine.trace().events(),
      TraceWriter::by_kind(EventKind::kSend));
  EXPECT_EQ(sends, engine.stats().messages_sent);

  std::ostringstream p0_only;
  TraceWriter::write(p0_only, engine.trace().events(),
                     TraceWriter::by_process(0));
  EXPECT_EQ(p0_only.str().find("p1 "), std::string::npos);

  std::ostringstream windowed;
  const std::size_t in_window = TraceWriter::write(
      windowed, engine.trace().events(), TraceWriter::by_time(100, 200));
  EXPECT_GT(in_window, 0u);
  EXPECT_LT(in_window, total);
}

TEST(DelayStats, MatchesSendsToDeliveries) {
  Engine engine(EngineConfig{.seed = 2});
  engine.add_process(std::make_unique<Chatter>(1));
  engine.add_process(std::make_unique<Chatter>(0));
  engine.set_delay_model(std::make_unique<FixedDelay>(5));
  engine.set_scheduler(std::make_unique<RoundRobinScheduler>());
  DelayStats stats;
  engine.trace().subscribe_kinds(
      kind_mask(EventKind::kSend, EventKind::kDeliver),
      [&](const Event& e) { stats.on_event(e); });
  engine.init();
  engine.run(3000);
  EXPECT_GT(stats.matched(), 100u);
  const Summary& channel = stats.channel(0, 1);
  EXPECT_GT(channel.count(), 0u);
  EXPECT_GE(channel.min(), 5.0);
  EXPECT_LE(channel.max(), 10.0);  // fixed delay + bounded scheduling lag
  EXPECT_EQ(stats.channel(1, 0).count(), stats.channel(0, 1).count());
}

TEST(DinerTimeline, RendersPhases) {
  Rig rig(RigOptions{.seed = 3, .n = 2});
  auto instance = rig.add_wait_free_dining(10, 1, graph::make_pair());
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  DinerTimeline timeline(1, {0, 1}, /*bucket=*/500);
  rig.engine.trace().subscribe_kinds(
      kind_mask(EventKind::kDinerTransition, EventKind::kCrash),
      [&](const Event& e) { timeline.on_event(e); });
  rig.engine.init();
  rig.engine.run(20000);
  const std::string rendered = timeline.render(rig.engine.now());
  // Two rows, both containing at least one eating glyph.
  EXPECT_NE(rendered.find("p0 "), std::string::npos);
  EXPECT_NE(rendered.find("p1 "), std::string::npos);
  EXPECT_NE(rendered.find('E'), std::string::npos);
  const std::size_t newline = rendered.find('\n');
  ASSERT_NE(newline, std::string::npos);
  EXPECT_GT(newline, 20u);  // a real row of buckets
}

TEST(DinerTimeline, MarksCrashes) {
  Rig rig(RigOptions{.seed = 4, .n = 2});
  auto instance = rig.add_wait_free_dining(10, 1, graph::make_pair());
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  DinerTimeline timeline(1, {0, 1}, /*bucket=*/500);
  rig.engine.trace().subscribe_kinds(
      kind_mask(EventKind::kDinerTransition, EventKind::kCrash),
      [&](const Event& e) { timeline.on_event(e); });
  rig.engine.schedule_crash(1, 5000);
  rig.engine.init();
  rig.engine.run(20000);
  const std::string rendered = timeline.render(rig.engine.now());
  EXPECT_NE(rendered.find('#'), std::string::npos);
  // The crash glyph persists to the end of row p1.
  const std::size_t row1 = rendered.find("p1 ");
  ASSERT_NE(row1, std::string::npos);
  const std::size_t row1_end = rendered.find('\n', row1);
  EXPECT_EQ(rendered[row1_end - 1], '#');
}

}  // namespace
}  // namespace wfd::sim
