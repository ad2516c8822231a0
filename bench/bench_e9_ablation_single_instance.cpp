// E9 — Ablation: why does the reduction need TWO dining instances and the
// hand-off?
//
// A single-instance extraction (witness and subject sharing one box, no
// overlap protocol) is compared with Alg. 1/2 on the same adversarial
// boxes. Reported: wrongful-suspicion episodes in the late half of a long
// run (a correct <>P must show 0). Expected shape: the single-instance
// variant keeps lying forever on the unfair box (and trickles mistakes
// even on a FIFO box — raw asynchrony suffices); the two-instance
// construction is clean on both.
#include <iostream>

#include "bench_util.hpp"
#include "detect/properties.hpp"
#include "harness/rig.hpp"
#include "reduce/ablation.hpp"
#include "reduce/extraction.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;
using harness::Rig;
using harness::RigOptions;

struct Row {
  std::string variant;
  std::string box;
  std::uint64_t early;
  std::uint64_t late;
};

reduce::ScriptedBoxFactory make_factory(Rig& rig, std::uint32_t burst) {
  return reduce::ScriptedBoxFactory(rig.engine, /*exclusive_from=*/500,
                                    dining::BoxSemantics::kLockout, burst);
}

Row run_single(std::uint32_t burst, std::uint64_t seed) {
  Rig rig(RigOptions{.seed = seed, .n = 2});
  auto factory = make_factory(rig, burst);
  auto pair = reduce::build_single_instance_pair(
      *rig.hosts[0], *rig.hosts[1], 0, 1, factory, 2000, 0x42, 0xED);
  rig.engine.init();
  rig.engine.run(100000);
  const std::uint64_t early = pair.witness->suspicion_episodes();
  rig.engine.run(100000);
  return Row{"single-instance", burst ? "unfair" : "fifo", early,
             pair.witness->suspicion_episodes() - early};
}

Row run_two(std::uint32_t burst, std::uint64_t seed) {
  Rig rig(RigOptions{.seed = seed, .n = 2});
  auto factory = make_factory(rig, burst);
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, true);
  rig.engine.init();
  rig.engine.run(100000);
  const std::uint64_t early = history.suspicion_episodes(0, 1);
  rig.engine.run(100000);
  return Row{"two-instance", burst ? "unfair" : "fifo", early,
             history.suspicion_episodes(0, 1) - early};
}

}  // namespace

int main() {
  bench::banner("E9: single-instance ablation",
                "Wrongful-suspicion episodes (early half / late half of a "
                "200k-step run); a correct <>P shows 0 late.");
  sim::Table table({"variant", "box", "early_eps", "late_eps"}, 18);
  table.print_header();
  bench::ShapeCheck shape;
  for (std::uint32_t burst : {0u, 2u}) {
    const Row single = run_single(burst, 9);
    const Row two = run_two(burst, 9);
    table.print_row(single.variant, single.box, single.early, single.late);
    table.print_row(two.variant, two.box, two.early, two.late);
    shape.expect(single.late > 0,
                 "single instance keeps making mistakes forever");
    shape.expect(two.late == 0,
                 "two instances + hand-off converge");
    if (burst > 0) {
      shape.expect(single.late > 20,
                   "unfair box amplifies the single-instance failure");
    }
  }
  std::cout << "\nPaper shape (Section 5.1): WF-<>WX guarantees no fairness, "
               "so a witness may eat\nunboundedly often between subject "
               "meals; the second instance plus the subjects'\noverlapping "
               "hand-off is exactly the throttle that makes eventual strong "
               "accuracy\nprovable. Removing it breaks the reduction.\n";
  return shape.finish("E9");
}
