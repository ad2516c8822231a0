// WSN duty-cycle example (the paper's Section 2 motivation): a cluster of
// three battery-limited sensors keeps an area covered far longer than any
// single battery by taking turns on duty through a wait-free <>WX dining
// scheduler. Depleted sensors crash; the survivors keep covering.
//
//   $ ./wsn_duty_cycle
#include <iomanip>
#include <iostream>

#include "dining/instance.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "wsn/duty_cycle.hpp"

int main() {
  using namespace wfd;

  constexpr std::uint32_t kSensors = 3;
  constexpr std::uint64_t kBattery = 4000;  // on-duty ticks per sensor

  harness::Rig rig(harness::RigOptions{.seed = 11, .n = kSensors});
  auto instance =
      rig.add_wait_free_dining(10, 3, graph::make_clique(kSensors));

  wsn::ClusterMonitor monitor(3, {0, 1, 2});
  rig.engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDinerTransition, sim::EventKind::kCrash),
      [&monitor](const sim::Event& e) { monitor.on_event(e); });

  std::vector<std::shared_ptr<wsn::SensorNode>> sensors;
  for (std::uint32_t i = 0; i < kSensors; ++i) {
    auto sensor = std::make_shared<wsn::SensorNode>(
        *instance.diners[i],
        wsn::SensorConfig{.battery = kBattery, .duty_length = 40,
                          .rest_length = 5});
    rig.hosts[i]->add_component(sensor, {});
    sensors.push_back(sensor);
  }
  rig.engine.init();

  std::cout << "tick      battery0  battery1  battery2  on-duty\n";
  std::cout << std::string(52, '-') << '\n';
  for (int slice = 0; slice < 16; ++slice) {
    rig.engine.run(2500);
    std::cout << std::setw(8) << rig.engine.now() << "  ";
    for (const auto& sensor : sensors) {
      std::cout << std::setw(8) << sensor->battery() << "  ";
    }
    for (std::uint32_t i = 0; i < kSensors; ++i) {
      if (sensors[i]->on_duty() && rig.engine.is_live(i)) {
        std::cout << 'S' << i << ' ';
      }
    }
    std::cout << '\n';
  }
  monitor.finalize(rig.engine.now());

  std::cout << "\ncluster lifetime : " << monitor.lifetime() << " ticks"
            << "  (single always-on battery would last ~" << kBattery << ")\n"
            << "coverage         : "
            << 100.0 * monitor.coverage_fraction() << " %\n"
            << "redundant duty   : "
            << 100.0 * monitor.redundancy_fraction()
            << " %  (<>WX scheduling mistakes cost energy, not correctness)\n";
  for (std::uint32_t i = 0; i < kSensors; ++i) {
    std::cout << "sensor " << i << "        : " << sensors[i]->shifts()
              << " shifts, " << (rig.engine.is_live(i) ? "alive" : "depleted")
              << '\n';
  }
  return monitor.lifetime() > 2 * kBattery ? 0 : 1;
}
