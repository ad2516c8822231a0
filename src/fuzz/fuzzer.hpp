// Campaign driver: swarm sampling over the FuzzConfig space, novelty
// tracking via feature-hash signatures (the mc seen-set mixer over run
// shape features), and a delta-debugging shrinker that reduces a failing
// configuration to a minimal reproducer while preserving the failing
// oracle. A campaign streams its runs through one harness::OrderedStream:
// worker threads run up to two batches ahead while the campaign thread
// consumes the results strictly in run-index order, so accounting, novelty
// and the choice of failures to shrink happen in configuration order. The
// distinct failures then shrink concurrently through the same primitive
// and are applied in discovery order. With a fixed --runs count the
// outcome is therefore a pure function of (master_seed, runs), whatever
// the thread count. A batch (max(8, 4 x threads) runs) is only the
// unit of consumption at which progress is reported and the budget and
// abort are checked.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"

namespace wfd::fuzz {

struct CampaignOptions {
  std::uint64_t master_seed = 1;
  /// Exact number of runs (deterministic mode). 0 = keep going until the
  /// time budget expires.
  std::uint64_t runs = 0;
  /// Wall-clock budget in milliseconds, checked at batch boundaries of
  /// in-order consumption. 0 = none (then `runs` must be > 0). Budget
  /// campaigns sample each batch from the target pool adapted after the
  /// previous one, so their workers never run past the current batch.
  std::uint64_t budget_ms = 0;
  int threads = 1;
  /// Target pool to sample from; empty = all legal targets.
  std::vector<TargetKind> targets;
  bool shrink = true;
  std::uint32_t max_shrink_attempts = 160;
  /// Shrink at most this many distinct failures per campaign.
  std::uint32_t max_repros = 4;
  /// Optional metrics registry: the campaign counts fuzz.runs /
  /// fuzz.failing / fuzz.novel / fuzz.oracle_firings / fuzz.shrink_runs as
  /// it goes (updated on the campaign thread as it consumes results in
  /// order, so a snapshot at a batch boundary is consistent). Never
  /// affects sampling or grading.
  obs::Registry* metrics = nullptr;
  /// Optional progress callback, fired from the campaign thread at every
  /// batch boundary of in-order consumption (completed is then a multiple
  /// of the batch size, or options.runs) and once at the end with
  /// completed == executed runs. `total` is options.runs, or 0 for
  /// budget-bound campaigns.
  std::function<void(std::uint64_t completed, std::uint64_t total,
                     std::uint64_t elapsed_ms)>
      on_progress;
  /// Cooperative cancellation, polled at batch boundaries of in-order
  /// consumption and before each shrink result is applied (a long-lived
  /// host sets it when the requesting client goes away): when true the
  /// campaign stops early with the stats it has. Runs that workers finished
  /// past the boundary are discarded unaccounted, no shrink starts after a
  /// stop during the runs, and no worker thread outlives the call.
  const std::atomic<bool>* abort = nullptr;
};

struct CampaignStats {
  std::uint64_t executed = 0;
  std::uint64_t failing = 0;
  std::uint64_t corpus_size = 0;  ///< distinct feature signatures seen
  std::uint64_t novel = 0;        ///< runs that added a new signature
  std::uint64_t shrink_runs = 0;  ///< extra runs spent shrinking
  std::uint64_t total_steps = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_meals = 0;
  std::uint64_t elapsed_ms = 0;
  std::map<std::string, std::uint64_t> oracle_failures;  ///< name -> count
};

struct CampaignResult {
  CampaignStats stats;
  /// One (shrunk, re-validated) reproducer per distinct failure signature,
  /// capped at options.max_repros.
  std::vector<ReproCase> repros;
};

/// Swarm-sample configuration #`index` of the campaign keyed by
/// `master_seed`. Pure function of (master_seed, index, pool).
FuzzConfig sample_config(std::uint64_t master_seed, std::uint64_t index,
                         const std::vector<TargetKind>& pool);

/// All four legal targets (clean campaigns must stay clean on these).
std::vector<TargetKind> legal_targets();
/// The deliberately-broken targets (campaigns must find these).
std::vector<TargetKind> broken_targets();

/// Expand target specs into a deduplicated pool, preserving first-mention
/// order. Each spec is "legal" | "broken" | "all" or a comma-separated list
/// of target names (empty segments are skipped). Shared by the wfd_fuzz CLI
/// and the serve daemon's request parser so both surfaces accept the same
/// vocabulary. Returns false with the offending name in `error` on an
/// unknown target; an empty spec list yields an empty pool (campaign
/// default, i.e. all legal targets).
bool resolve_target_pool(const std::vector<std::string>& specs,
                         std::vector<TargetKind>* out, std::string* error);

struct ShrinkOutcome {
  ReproCase repro;           ///< minimal failing case with expected outcome
  std::uint32_t attempts = 0;
  std::uint32_t accepted = 0;  ///< candidates that kept the failure
  std::uint32_t runs = 0;      ///< run_config invocations spent
  /// False iff the input case did not fail at all when re-run — the caller
  /// asked to shrink a non-failure. The repro then carries oracle "none"
  /// and MUST NOT be written out as a failure reproducer; campaigns skip
  /// it, and wfd_fuzz --shrink reports the divergence and exits non-zero.
  bool reproduced = true;
};

/// Delta-debug `failing` down: drop crash/mistake/pause plans (ddmin),
/// simplify scheduler/delay/graph, reduce n and the scripted knobs, shorten
/// the run — accepting a candidate only if it still fails with the SAME
/// oracle. Returns the minimal case plus its recorded expected outcome.
ShrinkOutcome shrink_case(const FuzzConfig& failing,
                          std::uint32_t max_attempts);

/// Replay a stored case: re-run its config and check the outcome matches
/// bit-identically (oracle name, violation time, detail; a "none" case must
/// run clean). On mismatch `why` explains the divergence.
bool replay_case(const ReproCase& repro, std::string* why);

/// Per-file outcome of replaying a .repro file or a directory of them.
struct ReplayReport {
  struct Item {
    std::string path;
    bool ok = false;
    std::string why;  ///< load error or divergence description
  };
  std::vector<Item> items;  ///< sorted-path order, one per .repro found
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;

  bool all_ok() const { return failed == 0 && !items.empty(); }
};

/// Replay `path` — a single .repro file, or a directory scanned RECURSIVELY
/// for *.repro files (sorted-path order, so reports are deterministic).
/// Every file is replayed and reported individually; one divergence never
/// hides another. An empty directory yields an empty (failing) report.
ReplayReport replay_path(const std::string& path);

/// Run a fuzzing campaign. `narrate`, if set, receives progress lines. The
/// worker pool lives only for the call: no thread outlives it.
CampaignResult run_fuzz_campaign(
    const CampaignOptions& options,
    const std::function<void(const std::string&)>& narrate = {});

}  // namespace wfd::fuzz
