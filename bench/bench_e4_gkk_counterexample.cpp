// E4 — Section 3's counterexample, measured.
//
// The contention-manager-based <>P extraction of [8] (GKK) against two
// legal WF-<>WX boxes that differ only in their convergence anatomy:
//
//   kLockout   — a never-exiting eater blocks the witness out: GKK's
//                witness trusts forever (the case [8] implicitly assumes);
//   kForkBased — [12]-style: mistake-prefix eaters hold no lock, the
//                witness keeps eating, and GKK suspects the correct,
//                live subject at an unbounded rate forever.
//
// Our Alg. 1/2 reduction on the same fork-based box converges. Reported:
// wrongful-suspicion episodes in an early window and in a late window
// (a correct extraction's late window must be 0).
#include <iostream>

#include "bench_util.hpp"
#include "detect/properties.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "reduce/gkk.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;
using harness::Rig;
using harness::RigOptions;

struct Row {
  std::string construction;
  std::string box;
  std::uint64_t early_episodes;  // episodes during the first half
  std::uint64_t late_episodes;   // episodes during the second half
  bool accurate_suffix;          // no wrongful suspicion in the late window
};

Row run_gkk(dining::BoxSemantics semantics, const std::string& label,
            std::uint64_t seed) {
  Rig rig(RigOptions{.seed = seed, .n = 2});
  reduce::ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1500,
                                     semantics);
  reduce::GkkPair pair = reduce::build_gkk_pair(
      *rig.hosts[0], *rig.hosts[1], 0, 1, factory, 2000, 0x42, 0xED);
  rig.engine.init();
  rig.engine.run(100000);
  const std::uint64_t early = pair.witness->suspicion_episodes();
  rig.engine.run(100000);
  const std::uint64_t late = pair.witness->suspicion_episodes() - early;
  return Row{"GKK [8]", label, early, late, late == 0};
}

Row run_ours(std::uint64_t seed) {
  Rig rig(RigOptions{.seed = seed, .n = 2});
  reduce::ScriptedBoxFactory factory(rig.engine, /*exclusive_from=*/1500,
                                     dining::BoxSemantics::kForkBased);
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  history.set_initial(0, 1, true);
  history.set_initial(1, 0, true);
  rig.engine.init();
  rig.engine.run(100000);
  const std::uint64_t early = history.suspicion_episodes(0, 1);
  rig.engine.run(100000);
  const std::uint64_t late = history.suspicion_episodes(0, 1) - early;
  return Row{"Alg.1/2 (ours)", "fork-based", early, late, late == 0};
}

}  // namespace

int main() {
  bench::banner(
      "E4: the GKK vulnerability (Section 3)",
      "A construction that is correct on one legal box and broken on "
      "another is not a black-box reduction.");
  sim::Table table({"construction", "box", "early_eps", "late_eps",
                    "suffix_ok"}, 16);
  table.print_header();
  bench::ShapeCheck shape;

  const Row lockout = run_gkk(dining::BoxSemantics::kLockout, "lockout", 3);
  table.print_row(lockout.construction, lockout.box, lockout.early_episodes,
                  lockout.late_episodes, wfd::bench::yesno(lockout.accurate_suffix));
  shape.expect(lockout.accurate_suffix,
               "GKK happens to work when the eater locks the witness out");

  const Row forkbased = run_gkk(dining::BoxSemantics::kForkBased,
                                "fork-based", 3);
  table.print_row(forkbased.construction, forkbased.box,
                  forkbased.early_episodes, forkbased.late_episodes,
                  wfd::bench::yesno(forkbased.accurate_suffix));
  shape.expect(!forkbased.accurate_suffix,
               "GKK must keep suspecting the correct subject forever");
  shape.expect(forkbased.late_episodes > 10,
               "wrongful suspicions recur at a steady rate");

  const Row ours = run_ours(3);
  table.print_row(ours.construction, ours.box, ours.early_episodes,
                  ours.late_episodes, wfd::bench::yesno(ours.accurate_suffix));
  shape.expect(ours.accurate_suffix,
               "the paper's reduction survives the same adversary");

  std::cout << "\nPaper shape (Section 3): GKK's proof silently assumes "
               "lockout semantics; against\na [12]-style box the witness "
               "accesses its critical section infinitely often and\n"
               "suspects the correct subject infinitely often — the paper's "
               "two-instance hand-off\nreduction is immune because subjects "
               "always exit.\n";
  return shape.finish("E4");
}
