// E12 — Ablation/comparison: two WF-<>WX algorithm families.
//
// Hygienic forks + suspicion override (fork state amortizes messages;
// alternation gives intrinsic ~1-fairness) versus timestamp permissions +
// suspicion waiver (stateless edges; 2·degree messages per meal). Both are
// correct WF-<>WX services — and the reduction extracts <>P from both,
// evidencing its black-box claim across implementation families.
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "detect/properties.hpp"
#include "dining/timestamp_diner.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;
using harness::Rig;
using harness::RigOptions;

struct Row {
  std::string algorithm;
  std::string topology;
  std::uint32_t n;
  std::uint64_t meals;
  double msgs_per_meal;
  double mean_wait;
  std::uint64_t suffix_violations;
};

template <class Builder>
Row run_config(const std::string& algorithm, const std::string& topo_name,
               graph::ConflictGraph graph, std::uint32_t n,
               Builder&& build, std::uint64_t seed) {
  RigOptions options{.seed = seed, .n = n, .detector_lag = 25};
  options.mistakes = {{0, 1, 300, 1500}};
  Rig rig(options);
  dining::DiningInstanceConfig config;
  config.port = 10;
  config.tag = 1;
  for (sim::ProcessId p = 0; p < n; ++p) config.members.push_back(p);
  config.graph = std::move(graph);
  std::vector<const detect::FailureDetector*> fds;
  for (const auto& d : rig.detectors) fds.push_back(d.get());
  auto services = build(rig, config, fds);

  dining::DiningMonitor monitor(rig.engine, config);
  dining::DiningMonitor::attach(rig.engine, monitor);
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  double wait_total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto client = std::make_shared<dining::DinerClient>(
        *services[i], dining::ClientConfig{.think_min = 1, .think_max = 6});
    rig.hosts[i]->add_component(client, {});
    clients.push_back(client);
  }
  rig.engine.schedule_crash(n - 1, 3000);
  rig.engine.init();
  rig.engine.run(120000);
  for (const auto& client : clients) wait_total += client->mean_wait();
  const std::uint64_t meals = monitor.total_meals();
  return Row{algorithm,
             topo_name,
             n,
             meals,
             meals == 0 ? 0.0
                        : static_cast<double>(rig.engine.stats().messages_sent) /
                              static_cast<double>(meals),
             wait_total / n,
             monitor.violations_since(6000)};
}

std::vector<dining::DiningService*> build_hygienic(
    Rig& rig, const dining::DiningInstanceConfig& config,
    const std::vector<const detect::FailureDetector*>& fds) {
  auto built = dining::build_dining_instance(rig.hosts, config, fds);
  std::vector<dining::DiningService*> out;
  for (auto& d : built.diners) out.push_back(d.get());
  // Host keeps ownership; leak the vector copy intentionally scoped.
  static std::vector<dining::BuiltInstance> keep;
  keep.push_back(std::move(built));
  return out;
}

std::vector<dining::DiningService*> build_timestamp(
    Rig& rig, const dining::DiningInstanceConfig& config,
    const std::vector<const detect::FailureDetector*>& fds) {
  auto built = dining::build_timestamp_instance(rig.hosts, config, fds);
  std::vector<dining::DiningService*> out;
  for (auto& d : built.diners) out.push_back(d.get());
  static std::vector<dining::BuiltTimestampInstance> keep;
  keep.push_back(std::move(built));
  return out;
}

bool extraction_works_on(reduce::BoxFactory& factory, Rig& rig) {
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  detect::DetectorHistory history(0xED);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDetectorChange),
      [&history](const sim::Event& e) { history.on_event(e); });
  for (const auto& pair : extraction.pairs) {
    history.set_initial(pair.watcher, pair.subject, true);
  }
  rig.engine.init();
  rig.engine.run(150000);
  return history.eventual_strong_accuracy(rig.engine).holds &&
         history.strong_completeness(rig.engine).holds;
}

}  // namespace

int main() {
  bench::banner("E12: WF-<>WX algorithm families",
                "Hygienic (fork-based) vs. timestamp (permission-based) "
                "dining: cost, latency, convergence — and the reduction "
                "works over both.");
  sim::Table table({"algorithm", "topology", "N", "meals", "msgs/meal",
                    "mean_wait", "suffix_viol"}, 12);
  table.print_header();
  bench::ShapeCheck shape;
  struct Topo {
    const char* name;
    graph::ConflictGraph (*make)(std::uint32_t);
  };
  const Topo topologies[] = {{"ring", graph::make_ring},
                             {"clique", graph::make_clique}};
  for (const Topo& topo : topologies) {
    for (std::uint32_t n : {4u, 6u}) {
      const Row hygienic = run_config("hygienic", topo.name, topo.make(n), n,
                                      build_hygienic, 77);
      const Row timestamp = run_config("timestamp", topo.name, topo.make(n), n,
                                       build_timestamp, 77);
      for (const Row& row : {hygienic, timestamp}) {
        table.print_row(row.algorithm, row.topology, row.n, row.meals,
                        row.msgs_per_meal, row.mean_wait,
                        row.suffix_violations);
      }
      shape.expect(hygienic.suffix_violations == 0 &&
                       timestamp.suffix_violations == 0,
                   "both algorithms converge to exclusivity");
      shape.expect(hygienic.meals > 100 && timestamp.meals > 100,
                   "both make steady progress");
    }
  }

  // The reduction is black-box: it extracts <>P from either family.
  {
    Rig rig(RigOptions{.seed = 78, .n = 2});
    reduce::WaitFreeBoxFactory factory(
        [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
    shape.expect(extraction_works_on(factory, rig),
                 "extraction over the hygienic family");
  }
  {
    Rig rig(RigOptions{.seed = 78, .n = 2});
    reduce::TimestampBoxFactory factory(
        [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
    shape.expect(extraction_works_on(factory, rig),
                 "extraction over the timestamp family");
  }
  std::cout << "\nPaper shape: the necessity proof quantifies over EVERY "
               "WF-<>WX solution; running\nthe same unmodified reduction "
               "over two algorithm families (and the scripted\nadversaries "
               "of E2/E4/E9) is the executable form of that quantifier.\n";
  return shape.finish("E12");
}
