// Campaign runner. OrderedStream is the one worker pool: jobs indexed
// 0, 1, 2, ... run on up to N threads (the caller is one of them) and their
// results are consumed strictly in index order, with workers running at
// most a fixed window ahead of consumption. There is no barrier between
// groups of jobs: while the consumer waits on a slow job, the workers keep
// running up to the window past it. run_campaign fans a vector of experiment configurations through
// it; the fuzz campaign streams its runs and shrinks through it. Each
// configuration builds its own Rig/engine (the simulator has no global
// mutable state), so independent runs parallelize trivially; results come
// back in configuration order regardless of scheduling, which keeps sweep
// output deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace wfd::harness {

/// Worker count for `jobs` independent runs; `requested` 0 = hardware
/// concurrency, always clamped to [1, jobs].
inline int campaign_threads(int requested, std::size_t jobs) {
  const unsigned hw = std::thread::hardware_concurrency();
  auto threads = static_cast<std::size_t>(
      requested > 0 ? requested : (hw == 0 ? 1 : static_cast<int>(hw)));
  if (threads > jobs) threads = jobs;
  return threads < 1 ? 1 : static_cast<int>(threads);
}

/// Per-job sizing metadata a sweep can attach to its configurations.
/// Checker sweeps forward `expected_states` into
/// mc::CheckOptions::expected_states so each job's seen-set is pre-sized to
/// its own space (an accurate per-config hint; one global estimate would
/// oversize small jobs, which measurably hurts cache locality).
struct JobMeta {
  /// Reachable states of the FULL (unreduced) space.
  std::uint64_t expected_states = 0;
  /// Stored (canonical) states when the checker runs a symmetry-reducing
  /// exploration; 0 = unknown. A symmetry-reduced job that pre-sizes from
  /// the full-space count allocates a seen-set several times larger than
  /// its fill ever reaches — forward expected_for() instead.
  std::uint64_t expected_states_symmetry = 0;

  /// The pre-size hint appropriate for a run: the symmetry-reduced count
  /// when the run canonicalizes orbits (and the count is known), the full
  /// count otherwise.
  std::uint64_t expected_for(bool symmetry_reduced) const {
    return symmetry_reduced && expected_states_symmetry != 0
               ? expected_states_symmetry
               : expected_states;
  }
};

/// Live campaign progress, handed to ProgressOptions::on_progress.
struct CampaignProgress {
  std::size_t completed = 0;  ///< jobs finished so far
  std::size_t total = 0;      ///< jobs in the campaign
  double elapsed_ms = 0.0;    ///< since the campaign started
};

/// Periodic progress reporting for a campaign. The callback fires from a
/// dedicated monitor thread (never a worker), every `interval_ms` while
/// jobs are outstanding, plus exactly once after the last job completes —
/// so a consumer of a campaign that runs to completion always observes
/// completed == total (a campaign aborted by a throwing `fn` reports the
/// completion count reached before the abort). The callback must not
/// throw; it may take as long as it likes (workers never wait on it).
struct ProgressOptions {
  std::function<void(const CampaignProgress&)> on_progress;
  std::uint64_t interval_ms = 1000;
};

/// The harness's one worker pool. Runs `job(i)` for i = 0, 1, 2, ... on
/// up to `threads` threads, the calling thread included, and hands the
/// results back strictly in index order through `next()`. Workers claim
/// indices from a shared cursor, below the limit set by `extend` and at
/// most `window` indices ahead of consumption, so at most `window` results
/// are ever produced but not yet consumed (a fixed ring of slots). Idle
/// workers block on a condition variable; nothing polls. `job` must be
/// callable concurrently from distinct threads.
///
/// Every worker references this object and whatever `job` captures, so the
/// workers are joined by `stop()`, by the destructor, and before `next()`
/// rethrows a job's exception: no worker outlives the stream.
template <class Result>
class OrderedStream {
 public:
  using Job = std::function<Result(std::size_t)>;

  /// Starts `threads - 1` workers; the caller runs jobs inside `next()`.
  /// Nothing is claimable until the first `extend`.
  OrderedStream(Job job, int threads, std::size_t window)
      : job_(std::move(job)),
        window_(window < 1 ? 1 : window),
        slots_(window_) {
    try {
      for (int t = 1; t < threads; ++t) {
        workers_.emplace_back([this] { work(); });
      }
    } catch (...) {
      stop();  // a thread failed to start: join the ones that did
      throw;
    }
  }
  OrderedStream(const OrderedStream&) = delete;
  OrderedStream& operator=(const OrderedStream&) = delete;
  ~OrderedStream() { stop(); }

  /// Lets indices below `limit` be claimed. Limits only grow.
  void extend(std::size_t limit) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (limit <= limit_) return;
      limit_ = limit;
    }
    work_cv_.notify_all();
  }

  /// The result of the next index in order (that index must be below the
  /// limit). While it is not ready the caller runs claimable jobs itself,
  /// and blocks only when none is left. If any job threw, every worker is
  /// joined and the first exception is rethrown; the remaining jobs are
  /// abandoned.
  Result next() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (error_) {
        lock.unlock();
        stop();
        std::rethrow_exception(error_);
      }
      std::optional<Result>& slot = slots_[consumed_ % window_];
      if (slot) {
        Result result = std::move(*slot);
        slot.reset();
        ++consumed_;
        const bool wake = claimable();
        lock.unlock();
        if (wake) work_cv_.notify_one();
        return result;
      }
      if (claimable()) {
        run(cursor_++, lock);
      } else if (cursor_ > consumed_) {
        done_cv_.wait(lock);  // a worker holds index consumed_
      } else {
        throw std::logic_error("OrderedStream::next past the limit");
      }
    }
  }

  /// Stops claiming and joins every worker. Results not yet consumed are
  /// dropped; `next()` must not be called afterwards. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  bool claimable() const {
    return !stopped_ && cursor_ < limit_ && cursor_ - consumed_ < window_;
  }

  // Runs job(index) with the lock released; holds it again on return.
  // Nothing may escape a pool thread (that would std::terminate), so an
  // exception is trapped: the first one wins and stops all claiming.
  void run(std::size_t index, std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    std::optional<Result> result;
    std::exception_ptr error;
    try {
      result.emplace(job_(index));
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) {
      if (!error_) error_ = error;
      stopped_ = true;
      work_cv_.notify_all();
      done_cv_.notify_one();
      return;
    }
    slots_[index % window_] = std::move(result);
    if (index == consumed_) done_cv_.notify_one();
  }

  void work() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stopped_ || claimable(); });
      if (stopped_) return;
      run(cursor_++, lock);
    }
  }

  const Job job_;
  const std::size_t window_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: an index became claimable
  std::condition_variable done_cv_;  ///< caller: the next result is ready
  std::vector<std::optional<Result>> slots_;  ///< index % window_
  std::size_t cursor_ = 0;    ///< next index to claim
  std::size_t consumed_ = 0;  ///< next index `next()` returns
  std::size_t limit_ = 0;
  bool stopped_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

/// Run `fn(config)` for every configuration on up to `threads` threads (one
/// OrderedStream whose window spans the whole campaign). `fn` must be
/// callable concurrently from distinct threads; results keep configuration
/// order. If `fn` throws, the first exception is rethrown on the calling
/// thread — but only after every worker and the monitor have been joined,
/// because all of them reference this frame's locals; the remaining jobs
/// are abandoned.
template <class Config, class Fn>
auto run_campaign(const std::vector<Config>& configs, Fn fn, int threads = 0,
                  const ProgressOptions& progress = {})
    -> std::vector<std::invoke_result_t<Fn&, const Config&>> {
  using Result = std::invoke_result_t<Fn&, const Config&>;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::atomic<std::size_t> completed{0};

  // Monitor thread: wakes on the interval (or when the campaign finishes,
  // via the condvar) and reports. Started only when a callback is set so
  // the plain path stays thread-free beyond the pool itself. The guard
  // joins it on every exit path, after the stream below has joined the
  // workers, so its final callback sees the last completion.
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::thread monitor;
  struct JoinMonitor {
    std::thread* monitor;
    std::mutex* done_mu;
    std::condition_variable* done_cv;
    bool* done;
    void join() {
      if (!monitor->joinable()) return;
      {
        std::lock_guard<std::mutex> lock(*done_mu);
        *done = true;
      }
      done_cv->notify_all();
      monitor->join();
    }
    ~JoinMonitor() { join(); }
  } join_monitor{&monitor, &done_mu, &done_cv, &done};

  if (progress.on_progress) {
    monitor = std::thread([&] {
      std::unique_lock<std::mutex> lock(done_mu);
      for (;;) {
        const bool finished = done_cv.wait_for(
            lock, std::chrono::milliseconds(progress.interval_ms),
            [&] { return done; });
        CampaignProgress p;
        p.completed = completed.load(std::memory_order_acquire);
        p.total = configs.size();
        p.elapsed_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                                 start)
                           .count();
        progress.on_progress(p);
        if (finished) return;
      }
    });
  }

  std::vector<Result> results;
  results.reserve(configs.size());
  {
    OrderedStream<Result> stream(
        [&](std::size_t i) {
          Result result = fn(configs[i]);
          completed.fetch_add(1, std::memory_order_release);
          return result;
        },
        campaign_threads(threads, configs.size()), configs.size());
    stream.extend(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results.push_back(stream.next());
    }
  }
  join_monitor.join();  // the final progress callback precedes the return
  return results;
}

/// As above, with one JobMeta per configuration: runs `fn(config, meta)`.
/// `metas` must be the same length as `configs`.
template <class Config, class Fn>
auto run_campaign(const std::vector<Config>& configs,
                  const std::vector<JobMeta>& metas, Fn fn, int threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, const Config&, const JobMeta&>> {
  struct Job {
    const Config* config;
    const JobMeta* meta;
  };
  std::vector<Job> jobs;
  jobs.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    jobs.push_back({&configs[i], i < metas.size() ? &metas[i] : nullptr});
  }
  static const JobMeta kNoMeta{};
  return run_campaign(
      jobs,
      [&fn](const Job& job) {
        return fn(*job.config, job.meta != nullptr ? *job.meta : kNoMeta);
      },
      threads);
}

}  // namespace wfd::harness
