// E2 — Extraction convergence tracks the box's own convergence.
//
// Sweep the scripted box's mistake-prefix length (its <>WX convergence
// time) and the channel-delay bound; report when the extracted detector
// stops lying. Expected shape: the extracted detector's last wrongful
// suspicion lands shortly after the box's exclusive_from — the reduction
// adds only a protocol-round tail, it cannot converge sooner than its box.
//
// The (prefix x delay x seed) grid is fanned across the campaign runner
// (each cell builds its own Rig); rows print in grid order regardless of
// scheduling. CLI: --threads N --seeds A:B --json out.json.
#include <iostream>

#include "bench_util.hpp"
#include "detect/properties.hpp"
#include "harness/campaign.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;
using harness::Rig;
using harness::RigOptions;

struct Config {
  sim::Time box_converge;
  sim::Time delay_max;
  std::uint64_t seed;
};

struct Row {
  bool accurate = false;
  sim::Time detector_converge = 0;
  std::uint64_t wrongful_episodes = 0;
};

Row run_config(const Config& config) {
  Rig rig(RigOptions{.seed = config.seed,
                     .n = 2,
                     .delay_min = 1,
                     .delay_max = config.delay_max});
  reduce::ScriptedBoxFactory factory(rig.engine, config.box_converge,
                                     dining::BoxSemantics::kLockout);
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  rig.engine.init();
  rig.engine.run(200000);
  const auto accuracy = history.eventual_strong_accuracy(rig.engine);
  return Row{accuracy.holds, accuracy.convergence,
             history.suspicion_episodes(0, 1)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli =
      bench::parse_cli(argc, argv, "bench_e2_convergence_sweep");
  bench::banner("E2: convergence sweep",
                "The extracted detector's convergence point tracks the "
                "underlying box's <>WX convergence (mistake-prefix length).");

  const sim::Time prefixes[] = {0, 2000, 8000, 30000};
  const sim::Time delays[] = {4, 16, 64};
  std::vector<Config> configs;
  for (const std::uint64_t seed : cli.seeds(7)) {
    for (const sim::Time prefix : prefixes) {
      for (const sim::Time delay : delays) {
        configs.push_back({prefix, delay, seed});
      }
    }
  }
  const std::vector<Row> rows =
      harness::run_campaign(configs, run_config, cli.threads);

  sim::Table table({"seed", "box_conv", "delay_max", "accurate", "det_conv",
                    "episodes(0->1)"});
  table.print_header();
  bench::ShapeCheck shape;
  bench::JsonRows json;
  std::uint64_t current_seed = ~0ull;
  sim::Time prev_conv = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    const Row& row = rows[i];
    if (config.seed != current_seed) {
      current_seed = config.seed;
      prev_conv = 0;  // monotonicity is a per-seed shape
    }
    table.print_row(config.seed, config.box_converge, config.delay_max,
                    wfd::bench::yesno(row.accurate), row.detector_converge,
                    row.wrongful_episodes);
    shape.expect(row.accurate, "accuracy must hold for every prefix length");
    // The detector cannot settle much before the box does. The last
    // *observed* mistake may precede the configured exclusivity point by
    // chance (the random prefix can behave well near its end), so the
    // slack scales with the prefix length.
    if (config.box_converge > 0) {
      shape.expect(row.detector_converge + 100 + config.box_converge / 10 >=
                       config.box_converge,
                   "detector cannot converge much before its box");
    }
    // Longer box prefixes push detector convergence out monotonically
    // (compare at fixed delay_max = 16 — second cell of each group).
    if (config.delay_max == 16) {
      shape.expect(row.detector_converge + 4000 >= prev_conv,
                   "detector convergence grows with box convergence");
      prev_conv = row.detector_converge;
    }
    json.begin_row();
    json.field("experiment", "e2").field("seed", config.seed)
        .field("box_conv", config.box_converge)
        .field("delay_max", config.delay_max)
        .field("accurate", row.accurate)
        .field("det_conv", row.detector_converge)
        .field("episodes", row.wrongful_episodes);
  }
  if (!cli.json_path.empty()) {
    shape.expect(json.write_file(cli.json_path),
                 "write JSON to " + cli.json_path);
  }
  std::cout << "\nPaper shape: the reduction converts an eventually exclusive "
               "scheduler into an\neventually reliable detector — the "
               "detector's lie-free suffix begins a short\nprotocol tail "
               "after the box's exclusive suffix, for every delay bound.\n";
  return shape.finish("E2");
}
