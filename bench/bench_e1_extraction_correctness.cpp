// E1 — The extracted detector is eventually perfect (Theorems 1 and 2).
//
// For each (N, crash pattern, seed): run the full reduction over the real
// wait-free <>WX dining algorithm and grade the extracted detector's strong
// completeness and eventual strong accuracy, reporting the empirical
// convergence point and the total number of output flips (all finite).
#include <iostream>

#include "bench_util.hpp"
#include "detect/properties.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;
using harness::Rig;
using harness::RigOptions;

struct Row {
  std::uint32_t n;
  std::uint32_t crashes;
  std::uint64_t seed;
  bool completeness;
  bool accuracy;
  sim::Time convergence;
  std::uint64_t flips;
  std::uint64_t meals;
};

Row run_config(std::uint32_t n, std::uint32_t crashes, std::uint64_t seed) {
  Rig rig(RigOptions{.seed = seed, .n = n, .detector_lag = 25});
  reduce::WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction =
      reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  for (std::uint32_t c = 0; c < crashes; ++c) {
    rig.engine.schedule_crash(n - 1 - c, 4000 + 2000 * c);
  }
  rig.engine.init();
  rig.engine.run(120000 + 40000ull * n);

  const auto completeness = history.strong_completeness(rig.engine);
  const auto accuracy = history.eventual_strong_accuracy(rig.engine);
  std::uint64_t meals = 0;
  for (const auto& pair : extraction.pairs) meals += pair.witness->meals();
  return Row{n,
             crashes,
             seed,
             completeness.holds,
             accuracy.holds,
             std::max(completeness.convergence, accuracy.convergence),
             history.flip_count(),
             meals};
}

}  // namespace

int main() {
  bench::banner("E1: extraction correctness",
                "Extracted detector satisfies strong completeness + eventual "
                "strong accuracy on the real WF-<>WX box (Theorems 1, 2).");
  sim::Table table({"N", "crashes", "seed", "complete", "accurate",
                    "converge@", "flips", "witness_meals"});
  table.print_header();
  bench::ShapeCheck shape;
  for (std::uint32_t n : {2u, 3u, 4u}) {
    for (std::uint32_t crashes : {0u, 1u}) {
      if (crashes >= n) continue;
      for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        const Row row = run_config(n, crashes, seed);
        table.print_row(row.n, row.crashes, row.seed,
                        wfd::bench::yesno(row.completeness),
                        wfd::bench::yesno(row.accuracy), row.convergence,
                        row.flips, row.meals);
        shape.expect(row.completeness, "strong completeness must hold");
        shape.expect(row.accuracy, "eventual strong accuracy must hold");
        shape.expect(row.flips < 1000,
                     "suspicion flips must be finite and modest");
      }
    }
  }
  std::cout << "\nPaper shape: both detector properties hold on every run; "
               "flips are finite;\nconvergence happens well before the run "
               "ends (suffix is mistake-free).\n";
  return shape.finish("E1");
}
