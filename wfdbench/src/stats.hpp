// Order statistics and open-loop accounting for the benchmark. Header-only
// and dependency-free so the self-test checks exactly what the workloads use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wfdbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank ceil(p/100 * n), 1-based). p in (0, 100].
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

/// Samples strictly beyond the nearest-rank p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// The highest of the usual reporting percentiles (50, 90, 99, 99.9) that
/// still has at least `min_beyond` samples beyond it; 0 when even the
/// median does not.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

/// Open-loop schedule: request i is due at start + i * interval, whatever
/// happened to earlier requests. Latency is charged from the due time, so a
/// generator that stalls charges the stall to every request it delayed, and
/// the lateness of each send is recorded separately.
class OpenLoop {
 public:
  OpenLoop(double start_s, double rate_per_s, std::size_t requests)
      : start_s_(start_s), interval_s_(1.0 / rate_per_s),
        sent_s_(requests, -1.0) {}

  std::size_t size() const { return sent_s_.size(); }
  double due(std::size_t i) const {
    return start_s_ + static_cast<double>(i) * interval_s_;
  }
  /// Record that request i left the generator at `now_s`; returns how late
  /// the generator was (never negative).
  double on_send(std::size_t i, double now_s) {
    sent_s_[i] = now_s;
    return lateness(i);
  }
  double lateness(std::size_t i) const {
    return sent_s_[i] < 0.0 ? 0.0 : std::max(0.0, sent_s_[i] - due(i));
  }
  /// Latency of a response to request i that arrived at `done_s`.
  double latency(std::size_t i, double done_s) const { return done_s - due(i); }
  /// Lateness of every request sent so far.
  std::vector<double> lateness_all() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < sent_s_.size(); ++i) {
      if (sent_s_[i] >= 0.0) out.push_back(lateness(i));
    }
    return out;
  }

 private:
  double start_s_;
  double interval_s_;
  std::vector<double> sent_s_;
};

}  // namespace wfdbench
