// explorer — command-line scenario runner for poking at the library:
//
//   ./explorer --scenario dining     --n 5 --seed 42 --steps 80000
//   ./explorer --scenario reduction  --seed 7 --crash 5000 --timeline
//   ./explorer --scenario wsn        --cells 4 --redundancy 2
//
// Flags: --scenario {dining|reduction|wsn}   what to run
//        --n / --cells / --redundancy        system size knobs
//        --seed, --steps, --crash <t>        run shape
//        --timeline                          ASCII diner timeline
//        --delays                            per-channel delay statistics
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "dining/monitors.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"
#include "sim/trace_tools.hpp"
#include "wsn/duty_cycle.hpp"
#include "wsn/network.hpp"

namespace {

using namespace wfd;

struct Options {
  std::string scenario = "dining";
  std::uint32_t n = 5;
  std::uint32_t cells = 4;
  std::uint32_t redundancy = 2;
  std::uint64_t seed = 1;
  std::uint64_t steps = 80000;
  sim::Time crash = 0;  // 0 = no crash
  bool timeline = false;
  bool delays = false;
};

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--scenario") options.scenario = next();
    else if (arg == "--n") options.n = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--cells") options.cells = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--redundancy") options.redundancy = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--seed") options.seed = std::stoull(next());
    else if (arg == "--steps") options.steps = std::stoull(next());
    else if (arg == "--crash") options.crash = std::stoull(next());
    else if (arg == "--timeline") options.timeline = true;
    else if (arg == "--delays") options.delays = true;
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  return options;
}

void maybe_print_delays(const sim::DelayStats& stats, std::uint32_t n) {
  std::cout << "\nchannel delay statistics (matched " << stats.matched()
            << " messages):\n";
  for (sim::ProcessId src = 0; src < n && src < 4; ++src) {
    for (sim::ProcessId dst = 0; dst < n && dst < 4; ++dst) {
      if (src == dst) continue;
      const sim::Summary& channel = stats.channel(src, dst);
      if (channel.count() == 0) continue;
      std::cout << "  " << src << " -> " << dst << ": n=" << channel.count()
                << " mean=" << channel.mean() << " p95="
                << channel.percentile(0.95) << '\n';
    }
  }
}

int run_dining(const Options& options) {
  harness::Rig rig(harness::RigOptions{.seed = options.seed, .n = options.n});
  auto instance =
      rig.add_wait_free_dining(10, 1, graph::make_ring(options.n));
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  dining::DiningMonitor monitor(rig.engine, instance.config);
  dining::DiningMonitor::attach(rig.engine, monitor);
  sim::DinerTimeline timeline(1, instance.config.members, options.steps / 72);
  sim::DelayStats delays;
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDinerTransition, sim::EventKind::kCrash,
                     sim::EventKind::kSend, sim::EventKind::kDeliver),
      [&](const sim::Event& e) {
        timeline.on_event(e);
        delays.on_event(e);
      });
  if (options.crash != 0) rig.engine.schedule_crash(options.n - 1, options.crash);
  rig.engine.init();
  rig.engine.run(options.steps);

  std::cout << "wait-free <>WX dining, ring of " << options.n << ", seed "
            << options.seed << ", " << options.steps << " steps\n\n";
  for (std::uint32_t d = 0; d < options.n; ++d) {
    std::cout << "diner " << d << ": " << monitor.meals(d) << " meals, "
              << "max wait " << monitor.max_wait(d)
              << (rig.engine.is_correct(d) ? "" : "  [crashed]") << '\n';
  }
  std::cout << "exclusion violations: " << monitor.exclusion_violations()
            << "\n";
  if (options.timeline) {
    std::cout << "\ntimeline ('.' think, 'h' hungry, 'E' eat, 'x' exit, '#' "
                 "crash):\n"
              << timeline.render(rig.engine.now());
  }
  if (options.delays) maybe_print_delays(delays, options.n);
  return 0;
}

int run_reduction(const Options& options) {
  harness::Rig rig(harness::RigOptions{.seed = options.seed, .n = 2});
  reduce::WaitFreeBoxFactory factory(
      [&rig](sim::ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory, {});
  sim::DinerTimeline timeline(0x1000, {0, 1}, options.steps / 72);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDinerTransition, sim::EventKind::kCrash),
      [&](const sim::Event& e) { timeline.on_event(e); });
  if (options.crash != 0) rig.engine.schedule_crash(1, options.crash);
  rig.engine.init();
  rig.engine.run(options.steps);

  const auto* pair = extraction.find(0, 1);
  std::cout << "reduction over the real box, seed " << options.seed << ", "
            << options.steps << " steps\n\n"
            << "witness meals: " << pair->witness->meals()
            << ", subject meals: " << pair->subject_threads->meals()
            << ", pings: " << pair->subject_threads->pings_sent() << '\n'
            << "p0 " << (pair->witness->suspects_subject() ? "SUSPECTS"
                                                           : "trusts")
            << " p1"
            << (options.crash != 0 ? "  (p1 crashed at t=" +
                                         std::to_string(options.crash) + ")"
                                   : "")
            << '\n';
  if (options.timeline) {
    std::cout << "\nDX_0 timeline (witness thread 0 vs subject thread 0):\n"
              << timeline.render(rig.engine.now());
  }
  return 0;
}

int run_wsn(const Options& options) {
  const wsn::NetworkLayout layout =
      wsn::make_ring_network(options.cells, options.redundancy);
  harness::Rig rig(harness::RigOptions{.seed = options.seed,
                                       .n = layout.sensor_count()});
  auto instance = rig.add_wait_free_dining(10, 3, layout.conflicts);
  std::vector<sim::ProcessId> members;
  for (sim::ProcessId p = 0; p < layout.sensor_count(); ++p) {
    members.push_back(p);
  }
  wsn::NetworkMonitor monitor(3, layout, members);
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDinerTransition, sim::EventKind::kCrash),
      [&](const sim::Event& e) { monitor.on_event(e); });
  std::vector<std::shared_ptr<wsn::SensorNode>> sensors;
  for (std::uint32_t s = 0; s < layout.sensor_count(); ++s) {
    auto sensor = std::make_shared<wsn::SensorNode>(
        *instance.diners[s], wsn::SensorConfig{.battery = 5000});
    rig.hosts[s]->add_component(sensor, {});
    sensors.push_back(sensor);
  }
  rig.engine.init();
  rig.engine.run(options.steps);
  monitor.finalize(rig.engine.now());

  std::cout << "WSN: " << options.cells << " cells x " << options.redundancy
            << " sensors, seed " << options.seed << "\n\n";
  for (std::uint32_t cell = 0; cell < options.cells; ++cell) {
    std::cout << "cell " << cell << ": coverage "
              << 100.0 * monitor.cell_coverage(cell) << " %, redundancy "
              << 100.0 * monitor.redundancy_fraction(cell) << " %\n";
  }
  std::cout << "network lifetime: " << monitor.network_lifetime()
            << " ticks\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (options.scenario == "dining") return run_dining(options);
  if (options.scenario == "reduction") return run_reduction(options);
  if (options.scenario == "wsn") return run_wsn(options);
  std::cerr << "unknown scenario '" << options.scenario
            << "' (want dining|reduction|wsn)\n";
  return 2;
}
