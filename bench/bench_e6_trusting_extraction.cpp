// E6 — Section 9: the same reduction over a *perpetual* weak-exclusion box
// (FTME on Ricart-Agrawala + T) extracts the trusting detector T.
//
// Sweep crash times; grade the trusting view: (a) trusting accuracy — a
// trust is withdrawn only after a real crash; (b) eventual trust of
// correct subjects; (c) the crash certificate fires only after the crash,
// with the detection latency reported.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "detect/oracle.hpp"
#include "detect/properties.hpp"
#include "reduce/extraction.hpp"
#include "reduce/ftme_box_factory.hpp"
#include "sim/component.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;

struct TRig {
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleTrusting>> oracles;

  TRig(std::uint32_t n, std::uint64_t seed)
      : engine(sim::EngineConfig{.seed = seed}) {
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    for (sim::ProcessId p = 0; p < n; ++p) {
      auto oracle =
          std::make_shared<detect::OracleTrusting>(engine, p, n, 25, 0, 0xFD);
      oracles.push_back(oracle);
      hosts[p]->add_component(oracle, {});
    }
  }
};

struct Row {
  sim::Time crash_at;  // kNever = no crash
  bool trusting_accuracy;
  bool certified;
  sim::Time certificate_at;
};

Row run_config(sim::Time crash_at, std::uint64_t seed) {
  TRig rig(2, seed);
  reduce::FtmeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.oracles[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED + 1);  // the trusting view
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  if (crash_at != sim::kNever) rig.engine.schedule_crash(1, crash_at);
  rig.engine.init();
  rig.engine.run(250000);
  const auto verdict = history.trusting_accuracy(rig.engine);
  const auto* pair = extraction.find(0, 1);
  return Row{crash_at, verdict.holds, pair->witness->certainly_crashed_T(),
             history.last_flip(0, 1)};
}

}  // namespace

int main() {
  bench::banner("E6: T-extraction from perpetual weak exclusion (Section 9)",
                "Alg. 1/2 over an FTME box yields a trusting detector: "
                "trust withdrawn only on real crashes.");
  sim::Table table({"crash_at", "trusting_ok", "certified", "last_flip@"});
  table.print_header();
  bench::ShapeCheck shape;

  const Row alive = run_config(sim::kNever, 21);
  table.print_row("never", wfd::bench::yesno(alive.trusting_accuracy),
                  wfd::bench::yesno(alive.certified), alive.certificate_at);
  shape.expect(alive.trusting_accuracy, "trusting accuracy with no crash");
  shape.expect(!alive.certified, "no certificate for a live subject");

  for (sim::Time crash_at : {20000u, 50000u, 100000u}) {
    const Row row = run_config(crash_at, 21 + crash_at);
    table.print_row(row.crash_at, wfd::bench::yesno(row.trusting_accuracy),
                    wfd::bench::yesno(row.certified), row.certificate_at);
    shape.expect(row.trusting_accuracy, "trusting accuracy under crash");
    shape.expect(row.certified, "crash certified after warm-up");
    shape.expect(row.certificate_at >= row.crash_at,
                 "certificate strictly after the crash");
  }
  std::cout << "\nPaper shape (Section 9): under perpetual weak exclusion "
               "the witness's judgment\nbecomes a crash certificate — the "
               "extracted oracle is T, strictly stronger than\n<>P, which "
               "is why FTME needs a stronger detector than dining under "
               "<>WX.\n";
  return shape.finish("E6");
}
