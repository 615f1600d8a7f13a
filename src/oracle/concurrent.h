#ifndef ULTRAVERSE_ORACLE_CONCURRENT_H_
#define ULTRAVERSE_ORACLE_CONCURRENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ultraverse.h"
#include "util/status.h"

namespace ultraverse::oracle {

/// Concurrent MVCC fuzzing (DESIGN.md §14): writer threads commit random
/// DML through the live facade while analyst threads pin shared history
/// snapshots and run analyze-only what-ifs against them. The oracle
/// invariant is schedule independence — for every snapshot an analyst
/// pinned, the selective analysis and the full-naive reference computed at
/// that SAME snapshot must fingerprint identically, no matter how many
/// commits raced past in the meantime. A divergence means a snapshot
/// leaked live state (the stale-cache/epoch bug class this suite guards).
struct ConcurrentFuzzOptions {
  uint64_t seed = 1;
  int writer_threads = 2;
  int analyst_threads = 4;
  /// Commits issued by each writer thread (all validated DML).
  size_t commits_per_writer = 32;
  /// Analyses run by each analyst thread (each = selective + full-naive
  /// pair at one shared snapshot).
  size_t analyses_per_analyst = 8;
  /// Statements seeded into the history before the race starts.
  size_t history_statements = 24;
  /// Also exercise the publish path: analysts occasionally attempt a real
  /// WhatIf() publish, which must either succeed or return kAborted
  /// (first committer wins) — any other outcome is a failure.
  bool try_publish = true;
  /// Optional progress sink (one line per event; CLI wires this to stderr).
  std::function<void(const std::string&)> progress;
};

struct ConcurrentFuzzReport {
  size_t commits = 0;            // writer commits that succeeded
  size_t analyses = 0;           // selective/full-naive pairs compared
  size_t snapshots_pinned = 0;   // distinct epochs analysts pinned
  size_t cache_hits = 0;         // WhatIfAnalyze served from the result cache
  size_t publishes = 0;          // WhatIf() publishes that landed
  size_t publish_aborts = 0;     // kAborted (lost the epoch race) — expected
  size_t divergences = 0;        // fingerprint mismatches (failures)
  std::vector<std::string> failures;  // one description per failure
};

/// Judges one analyst round: the selective analysis and the full-naive
/// reference of one op at one pinned snapshot. Returns "" when they agree
/// — the same rejection on both sides (say, a target the snapshot lacks)
/// counts as agreement, as in CheckCase — otherwise what diverged.
/// Fingerprints are compared only when `compare_fingerprints` (no publish
/// may have landed at or below the snapshot's epoch).
std::string JudgeAnalysisPair(const Result<core::WhatIfAnalysis>& selective,
                              const Result<core::WhatIfAnalysis>& full_naive,
                              bool compare_fingerprints);

/// Runs the concurrent oracle with a fixed seed. Thread interleaving is
/// nondeterministic by design; the checked invariant is not. Returns the
/// activity report; report.divergences == 0 and report.failures.empty()
/// means the run was clean.
ConcurrentFuzzReport ConcurrentFuzz(const ConcurrentFuzzOptions& options);

}  // namespace ultraverse::oracle

#endif  // ULTRAVERSE_ORACLE_CONCURRENT_H_
