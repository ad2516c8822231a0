#include "fuzz/snapshot.hpp"

#include <algorithm>
#include <cerrno>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WFD_FUZZ_HAVE_FORK 1
#include <sys/wait.h>
#include <unistd.h>
#else
#define WFD_FUZZ_HAVE_FORK 0
#endif

namespace wfd::fuzz {

namespace wire {

void put_u64(std::string* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void put_string(std::string* out, const std::string& value) {
  put_u64(out, value.size());
  out->append(value);
}

void put_family_result(std::string* out, const FamilyResult& result) {
  put_string(out, config_to_json(result.config, 0));
  put_u64(out, result.result.failures.size());
  for (const OracleFailure& failure : result.result.failures) {
    put_string(out, failure.oracle);
    put_u64(out, failure.at);
    put_string(out, failure.detail);
  }
  const RunStats& s = result.result.stats;
  for (const std::uint64_t value :
       {s.steps, s.messages_sent, s.messages_delivered, s.messages_dropped,
        s.messages_lost, s.messages_duplicated, s.messages_retransmitted,
        s.in_transit, s.crashes, s.total_meals, s.exclusion_violations,
        s.late_violations, s.last_violation, s.detector_flips,
        s.late_suspicion_episodes, s.deadline, s.wait_bound}) {
    put_u64(out, value);
  }
  put_u64(out, result.result.signature);
  put_u64(out, result.buckets.size());
  for (const std::uint32_t bucket : result.buckets) put_u64(out, bucket);
  put_u64(out, result.resumed ? 1 : 0);
}

bool Reader::get_u64(std::uint64_t* value) {
  if (data_.size() - pos_ < 8) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  *value = v;
  return true;
}

bool Reader::get_string(std::string* value) {
  std::uint64_t size = 0;
  if (!get_u64(&size)) return false;
  if (data_.size() - pos_ < size) return false;
  value->assign(data_, pos_, size);
  pos_ += size;
  return true;
}

bool Reader::get_family_result(FamilyResult* result) {
  *result = FamilyResult{};
  std::string config_json;
  std::string error;
  if (!get_string(&config_json) ||
      !config_from_json(config_json, &result->config, &error)) {
    return false;
  }
  std::uint64_t failures = 0;
  if (!get_u64(&failures) || failures > 1024) return false;
  for (std::uint64_t i = 0; i < failures; ++i) {
    OracleFailure failure;
    if (!get_string(&failure.oracle) || !get_u64(&failure.at) ||
        !get_string(&failure.detail)) {
      return false;
    }
    result->result.failures.push_back(std::move(failure));
  }
  RunStats& s = result->result.stats;
  for (std::uint64_t* field :
       {&s.steps, &s.messages_sent, &s.messages_delivered,
        &s.messages_dropped, &s.messages_lost, &s.messages_duplicated,
        &s.messages_retransmitted, &s.in_transit, &s.crashes, &s.total_meals,
        &s.exclusion_violations, &s.late_violations, &s.last_violation,
        &s.detector_flips, &s.late_suspicion_episodes, &s.deadline,
        &s.wait_bound}) {
    if (!get_u64(field)) return false;
  }
  if (!get_u64(&result->result.signature)) return false;
  std::uint64_t buckets = 0;
  if (!get_u64(&buckets) || buckets > CoverageMap::kBuckets) return false;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    std::uint64_t bucket = 0;
    if (!get_u64(&bucket)) return false;
    result->buckets.push_back(static_cast<std::uint32_t>(bucket));
  }
  std::uint64_t resumed = 0;
  if (!get_u64(&resumed)) return false;
  result->resumed = resumed != 0;
  return true;
}

bool write_all(int fd, const std::string& data) {
#if WFD_FUZZ_HAVE_FORK
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
#else
  (void)fd;
  (void)data;
  return false;
#endif
}

bool read_all(int fd, std::string* out) {
#if WFD_FUZZ_HAVE_FORK
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(buf, static_cast<std::size_t>(n));
  }
#else
  (void)fd;
  (void)out;
  return false;
#endif
}

}  // namespace wire

namespace {

/// The evolve loop's standard capture: retain nothing, and count into a
/// private registry so the run's counter footprint can be bucketized. The
/// trace counts only kinds some listener already observes (diner
/// transitions, detector flips); steps, messages and crashes reach the
/// footprint through the engine's own sim.* counters.
struct EvolveCapture {
  obs::Registry registry;
  RunCapture capture;
  EvolveCapture() {
    capture.trace_capacity = 1;
    capture.retain_kinds = 0;
    capture.metrics = &registry;
  }
};

void finish_buckets(const FuzzConfig& config, const RunResult& result,
                    const obs::Snapshot& snapshot, FamilyResult* out) {
  out->buckets = coverage_buckets(config, result);
  append_counter_buckets(snapshot, &out->buckets);
  canonicalize_buckets(&out->buckets);
}

/// Family-shape check for runway: every variant equals the first except
/// for strictly ascending steps, and every variant is normalize-stable.
bool verify_runway(const std::vector<FuzzConfig>& variants) {
  for (std::size_t i = 0; i < variants.size(); ++i) {
    FuzzConfig leveled = variants[i];
    leveled.steps = variants[0].steps;
    if (config_to_json(leveled, 0) != config_to_json(variants[0], 0)) {
      return false;
    }
    if (i > 0 && variants[i].steps <= variants[i - 1].steps) return false;
    if (config_to_json(normalize(variants[i]), 0) !=
        config_to_json(variants[i], 0)) {
      return false;
    }
  }
  return true;
}

/// Longest common crash-plan prefix of the family.
std::vector<CrashPlan> common_stem(const std::vector<FuzzConfig>& variants) {
  std::vector<CrashPlan> stem = variants[0].crashes;
  for (const FuzzConfig& variant : variants) {
    std::size_t shared = 0;
    while (shared < stem.size() && shared < variant.crashes.size() &&
           stem[shared].pid == variant.crashes[shared].pid &&
           stem[shared].at == variant.crashes[shared].at) {
      ++shared;
    }
    stem.resize(shared);
  }
  return stem;
}

/// Family-shape check for crash-suffix: identical except crash plans, all
/// normalize-stable, and every divergent crash strictly after the shared
/// prefix point S (so injecting it at S is injecting a FUTURE crash).
bool verify_crash_suffix(const std::vector<FuzzConfig>& variants,
                         const std::vector<CrashPlan>& stem,
                         sim::Time* prefix_end) {
  sim::Time min_extra = sim::kNever;
  for (const FuzzConfig& variant : variants) {
    FuzzConfig a = variant;
    FuzzConfig b = variants[0];
    a.crashes.clear();
    b.crashes.clear();
    if (config_to_json(a, 0) != config_to_json(b, 0)) return false;
    if (config_to_json(normalize(variant), 0) !=
        config_to_json(variant, 0)) {
      return false;
    }
    for (std::size_t i = stem.size(); i < variant.crashes.size(); ++i) {
      min_extra = std::min(min_extra, variant.crashes[i].at);
    }
  }
  if (min_extra == sim::kNever || min_extra < 2) return false;
  *prefix_end = min_extra - 1;
  return true;
}

std::vector<FamilyResult> run_cold(const std::vector<FuzzConfig>& variants,
                                   SnapshotStats* stats) {
  std::vector<FamilyResult> results;
  results.reserve(variants.size());
  for (const FuzzConfig& variant : variants) {
    results.push_back(cold_family_run(variant));
    if (stats != nullptr) ++stats->cold_runs;
  }
  return results;
}

std::vector<FamilyResult> run_runway(const std::vector<FuzzConfig>& variants,
                                     SnapshotStats* stats) {
  std::vector<FamilyResult> results;
  results.reserve(variants.size());
  EvolveCapture cap;
  ConfigRun run(variants[0], &cap.capture);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    run.advance_to(variants[i].steps);
    FamilyResult fr;
    fr.config = variants[i];
    fr.result = run.grade(variants[i]);
    // The cumulative registry at milestone i IS the cold-run export of
    // variant i: the engine passes through tick s_i identically either way
    // and grading retains nothing.
    finish_buckets(variants[i], fr.result, cap.registry.snapshot(), &fr);
    fr.resumed = i > 0;
    results.push_back(std::move(fr));
    if (stats != nullptr) {
      if (i == 0) ++stats->cold_runs; else ++stats->milestone_runs;
    }
  }
  return results;
}

#if WFD_FUZZ_HAVE_FORK
/// Fork-server execution: parent holds the engine at the shared prefix
/// point; each child injects its variant's divergent crashes and finishes
/// the run. Returns false if any child failed (caller falls back cold).
bool run_forked(const std::vector<FuzzConfig>& variants,
                const std::vector<CrashPlan>& stem, sim::Time prefix_end,
                std::vector<FamilyResult>* results, SnapshotStats* stats) {
  // The stem config: the family's shared fields with only the shared
  // crashes. It is what the prefix engine is built from; every variant's
  // own crashes are injected post-fork.
  FuzzConfig stem_config = variants[0];
  stem_config.crashes = stem;

  EvolveCapture cap;
  ConfigRun run(stem_config, &cap.capture);
  run.advance_to(prefix_end);

  for (const FuzzConfig& variant : variants) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t child = ::fork();
    if (child < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (child == 0) {
      // Child: the engine is at the prefix point, copy-on-write. Inject
      // this variant's divergent crashes (all strictly in the future),
      // finish, grade, ship, vanish without running atexit handlers.
      ::close(fds[0]);
      for (std::size_t i = stem.size(); i < variant.crashes.size(); ++i) {
        run.schedule_crash(variant.crashes[i].pid, variant.crashes[i].at);
      }
      run.advance_to(variant.steps);
      FamilyResult fr;
      fr.config = variant;
      fr.result = run.grade(variant);
      finish_buckets(variant, fr.result, cap.registry.snapshot(), &fr);
      fr.resumed = true;
      std::string payload;
      wire::put_family_result(&payload, fr);
      const bool ok = wire::write_all(fds[1], payload);
      ::close(fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    // Parent: drain the pipe (children are short-lived and payloads small;
    // reading to EOF before waitpid avoids any write-side stall).
    ::close(fds[1]);
    std::string payload;
    const bool read_ok = wire::read_all(fds[0], &payload);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(child, &status, 0);
    FamilyResult fr;
    wire::Reader reader(std::move(payload));
    if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !reader.get_family_result(&fr)) {
      return false;
    }
    results->push_back(std::move(fr));
    if (stats != nullptr) ++stats->forked_runs;
  }
  if (stats != nullptr) ++stats->cold_runs;  // the shared prefix itself
  return true;
}
#endif

}  // namespace

FamilyResult cold_family_run(const FuzzConfig& raw) {
  const FuzzConfig config = normalize(raw);
  EvolveCapture cap;
  FamilyResult fr;
  fr.config = config;
  fr.result = run_config(config, cap.capture);
  finish_buckets(config, fr.result, cap.registry.snapshot(), &fr);
  return fr;
}

std::vector<FamilyResult> run_family(const MutationPlan& plan,
                                     bool allow_snapshot,
                                     SnapshotStats* stats) {
  if (stats != nullptr) ++stats->families;
  std::vector<FuzzConfig> variants;
  variants.reserve(plan.variants.size());
  for (const FuzzConfig& variant : plan.variants) {
    variants.push_back(normalize(variant));
  }
  if (variants.empty()) return {};
  if (allow_snapshot && variants.size() >= 2) {
    if (plan.runway_family && verify_runway(variants)) {
      return run_runway(variants, stats);
    }
#if WFD_FUZZ_HAVE_FORK
    if (plan.crash_suffix_family) {
      const std::vector<CrashPlan> stem = common_stem(variants);
      sim::Time prefix_end = 0;
      if (verify_crash_suffix(variants, stem, &prefix_end)) {
        std::vector<FamilyResult> results;
        results.reserve(variants.size());
        SnapshotStats speculative;  // only committed on full success
        if (run_forked(variants, stem, prefix_end, &results, &speculative)) {
          if (stats != nullptr) {
            stats->cold_runs += speculative.cold_runs;
            stats->forked_runs += speculative.forked_runs;
          }
          return results;
        }
      }
    }
#endif
  }
  return run_cold(variants, stats);
}

}  // namespace wfd::fuzz
