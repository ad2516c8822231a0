// Dining property monitors. A DiningMonitor watches one instance's
// kDinerTransition events and grades the run against the paper's two
// requirements — eventual weak exclusion and wait-freedom — plus the
// eventual k-fairness measure of the secondary result (Section 8):
//
//  * exclusion: every instant at which two *live* neighbors eat
//    simultaneously is a scheduling mistake. Perpetual weak exclusion
//    means zero mistakes; eventual weak exclusion means finitely many —
//    on a finite run we report the count and the last-mistake time (the
//    empirical convergence point).
//  * wait-freedom: every correct hungry diner eventually eats.
//  * k-fairness: the largest number of consecutive meals a diner took
//    while some correct neighbor stayed continuously hungry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dining/hygienic.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace wfd::sim {
class Engine;
}

namespace wfd::dining {

class DiningMonitor {
 public:
  /// Watches the instance identified by config.tag. The monitor reads
  /// ground truth (liveness) from the engine; it is an observer, never a
  /// participant.
  DiningMonitor(const sim::Engine& engine, DiningInstanceConfig config);

  /// Subscribe `monitor` to the diner transitions of `engine.trace()`.
  static void attach(sim::Engine& engine, DiningMonitor& monitor);

  void on_event(const sim::Event& event);

  /// --- exclusion ----------------------------------------------------------
  /// Number of eat-start events that overlapped a live neighbor's meal.
  std::uint64_t exclusion_violations() const { return violations_; }
  sim::Time last_violation() const { return last_violation_; }
  /// Violations occurring at or after `from` (0 == eventual WX converged
  /// before `from`).
  std::uint64_t violations_since(sim::Time from) const;
  bool perpetual_exclusion() const { return violations_ == 0; }

  /// --- wait-freedom --------------------------------------------------------
  /// True iff no correct diner has been continuously hungry for more than
  /// `max_wait` ticks as of `now` (and every earlier hungry spell ended in
  /// a meal). The bound turns "eventually eats" into a checkable statement
  /// on a finite run.
  bool wait_free(sim::Time now, sim::Time max_wait, std::string* detail) const;
  /// Longest completed hungry->eating wait of a given diner.
  sim::Time max_wait(std::uint32_t diner) const;

  /// --- activity ------------------------------------------------------------
  std::uint64_t meals(std::uint32_t diner) const;
  std::uint64_t total_meals() const;
  DinerState current_state(std::uint32_t diner) const;

  /// --- fairness -------------------------------------------------------------
  /// Max consecutive-overtake count recorded at time >= from: diner u ate
  /// for the c-th consecutive time while neighbor v stayed hungry.
  std::uint64_t max_overtakes(sim::Time from) const;

 private:
  struct OvertakeRecord {
    sim::Time time;
    std::uint32_t eater;
    std::uint32_t hungry_neighbor;
    std::uint64_t consecutive;
  };

  const sim::Engine& engine_;
  DiningInstanceConfig config_;
  std::map<sim::ProcessId, std::uint32_t> index_of_;
  std::vector<DinerState> state_;
  std::vector<sim::Time> hungry_since_;
  std::vector<sim::Time> longest_completed_wait_;
  std::vector<std::uint64_t> meals_;
  std::vector<std::vector<std::uint64_t>> consecutive_;  // [eater][neighbor]
  std::vector<OvertakeRecord> overtakes_;
  std::vector<std::pair<sim::Time, std::uint64_t>> violation_log_;
  std::uint64_t violations_ = 0;
  sim::Time last_violation_ = 0;
};

}  // namespace wfd::dining
