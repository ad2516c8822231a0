// Shared plumbing of the three workloads: clocks and process counters, the
// benchmark's own span recorder, and the run context main() hands to each
// workload.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "report.hpp"

namespace wfdbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a process-wide origin (first call).
double now_s();
/// CPU time of this process (all threads), seconds.
double process_cpu_s();
/// Peak resident set of this process (VmHWM) since start or the last
/// reset_peak_rss(), MB.
double self_peak_rss_mb();
void reset_peak_rss();
/// SplitMix64 finalizer: derives independent input streams from --seed.
std::uint64_t mix(std::uint64_t x);

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string root;       ///< checkout root (inputs such as tests/vectors)
  std::string serve_bin;  ///< the built wfd_serve executable
};

// --- spans ------------------------------------------------------------------
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a layer. Each thread appends to its own buffer (no locking on
// the hot path); buffers stay in memory until the run ends and are then
// aggregated and written out. With tracing off a Span costs one branch.

struct SpanRecord {
  const char* name;  ///< string literal
  double start_us;
  double end_us;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint64_t request;  ///< request / run id shared by a request's spans
  std::uint32_t thread;
};

class Tracer {
 public:
  static Tracer& instance();
  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);
  /// Record a finished span from timestamps taken elsewhere (now_s() clock)
  /// and return its id; for work that does not nest on one thread, such as
  /// a request in flight on a socket.
  std::uint32_t add(const char* name, double start_s, double end_s,
                    std::uint64_t request, std::uint32_t parent = 0);
  /// Every span recorded so far (call with no span open on any thread).
  std::vector<SpanRecord> all() const;

  struct Summary {
    std::uint64_t count = 0;
    double total_us = 0;
  };
  std::map<std::string, Summary> summarize() const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. Nested Spans on one thread form a parent chain; a span
/// opened on a worker thread names its cause on another thread explicitly.
class Span {
 public:
  Span(const char* name, std::uint64_t request);
  Span(const char* name, std::uint64_t request, std::uint32_t parent);
  ~Span();
  std::uint32_t id() const { return id_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  double start_us_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t saved_ = 0;  ///< this thread's open span before this one
};

/// Mean duration of the named spans in microseconds (0 if none).
double mean_us(const std::map<std::string, Tracer::Summary>& summary,
               const std::string& name);

/// The machine record attached to every output row.
std::string machine_json(const std::string& commit);
/// Write the spans plus the machine record to `path` (JSON).
bool write_trace(const std::string& path, const std::string& machine);

// --- workloads --------------------------------------------------------------

Result run_fuzz_swarm(const Context& ctx);
Result run_mc_scenario(const Context& ctx);
Result run_serve_mixed(const Context& ctx);

}  // namespace wfdbench
