#include "dining/monitors.hpp"

#include <sstream>

#include "sim/engine.hpp"

namespace wfd::dining {

DiningMonitor::DiningMonitor(const sim::Engine& engine,
                             DiningInstanceConfig config)
    : engine_(engine), config_(std::move(config)) {
  const std::size_t n = config_.members.size();
  for (std::uint32_t i = 0; i < n; ++i) index_of_[config_.members[i]] = i;
  state_.assign(n, DinerState::kThinking);
  hungry_since_.assign(n, sim::kNever);
  longest_completed_wait_.assign(n, 0);
  meals_.assign(n, 0);
  consecutive_.assign(n, std::vector<std::uint64_t>(n, 0));
}

void DiningMonitor::attach(sim::Engine& engine, DiningMonitor& monitor) {
  engine.trace().subscribe_kinds(
      sim::kind_mask(sim::EventKind::kDinerTransition),
      [&monitor](const sim::Event& event) { monitor.on_event(event); });
}

void DiningMonitor::on_event(const sim::Event& event) {
  if (event.kind != sim::EventKind::kDinerTransition || event.a != config_.tag) {
    return;
  }
  const auto it = index_of_.find(event.pid);
  if (it == index_of_.end()) return;
  const std::uint32_t diner = it->second;
  const auto to = static_cast<DinerState>(event.c);
  state_[diner] = to;

  switch (to) {
    case DinerState::kHungry:
      hungry_since_[diner] = event.time;
      break;
    case DinerState::kEating: {
      if (hungry_since_[diner] != sim::kNever) {
        const sim::Time wait = event.time - hungry_since_[diner];
        if (wait > longest_completed_wait_[diner]) {
          longest_completed_wait_[diner] = wait;
        }
        hungry_since_[diner] = sim::kNever;
      }
      ++meals_[diner];
      // Exclusion check: is any live neighbor already eating?
      for (std::uint32_t nbr : config_.graph.neighbors(diner)) {
        if (state_[nbr] == DinerState::kEating &&
            engine_.is_live(config_.members[nbr]) &&
            engine_.is_live(config_.members[diner])) {
          ++violations_;
          last_violation_ = event.time;
          violation_log_.emplace_back(event.time, violations_);
        }
      }
      // Fairness bookkeeping: this meal overtakes every currently hungry
      // neighbor; the diner's own overtaken-chains reset.
      for (std::uint32_t nbr : config_.graph.neighbors(diner)) {
        consecutive_[nbr][diner] = 0;
      }
      for (std::uint32_t nbr : config_.graph.neighbors(diner)) {
        if (state_[nbr] == DinerState::kHungry &&
            engine_.is_live(config_.members[nbr])) {
          const std::uint64_t chain = ++consecutive_[diner][nbr];
          overtakes_.push_back(OvertakeRecord{event.time, diner, nbr, chain});
        }
      }
      break;
    }
    case DinerState::kThinking:
    case DinerState::kExiting:
      break;
  }
}

std::uint64_t DiningMonitor::violations_since(sim::Time from) const {
  std::uint64_t count = 0;
  for (const auto& [time, cumulative] : violation_log_) {
    if (time >= from) ++count;
  }
  return count;
}

bool DiningMonitor::wait_free(sim::Time now, sim::Time max_wait,
                              std::string* detail) const {
  for (std::uint32_t diner = 0; diner < state_.size(); ++diner) {
    if (!engine_.is_correct(config_.members[diner])) continue;
    if (hungry_since_[diner] != sim::kNever &&
        now - hungry_since_[diner] > max_wait) {
      if (detail != nullptr) {
        std::ostringstream out;
        out << "diner " << diner << " (pid " << config_.members[diner]
            << ") hungry since t=" << hungry_since_[diner] << ", now " << now;
        *detail = out.str();
      }
      return false;
    }
  }
  return true;
}

sim::Time DiningMonitor::max_wait(std::uint32_t diner) const {
  return longest_completed_wait_[diner];
}

std::uint64_t DiningMonitor::meals(std::uint32_t diner) const {
  return meals_[diner];
}

std::uint64_t DiningMonitor::total_meals() const {
  std::uint64_t total = 0;
  for (std::uint64_t m : meals_) total += m;
  return total;
}

DinerState DiningMonitor::current_state(std::uint32_t diner) const {
  return state_[diner];
}

std::uint64_t DiningMonitor::max_overtakes(sim::Time from) const {
  std::uint64_t best = 0;
  for (const OvertakeRecord& rec : overtakes_) {
    if (rec.time >= from && rec.consecutive > best) best = rec.consecutive;
  }
  return best;
}

}  // namespace wfd::dining
