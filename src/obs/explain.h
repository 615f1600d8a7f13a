#ifndef ULTRAVERSE_OBS_EXPLAIN_H_
#define ULTRAVERSE_OBS_EXPLAIN_H_

/// Decision-provenance reports for what-if analyses (DESIGN.md §13).
///
/// Every retroactive analysis assembles a WhatIfReport: where the wall/CPU
/// time went phase by phase, what the staging/VM/lifecycle layers did, and —
/// at ExplainLevel::kFull — a per-transaction verdict with machine-checkable
/// evidence for *why* each suffix transaction was replayed or pruned. The
/// fuzzer gate (`fuzz_whatif --check-explain`) re-validates pruned verdicts
/// against ground truth, so these reasons are sound, not decorative.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ultraverse::obs {

/// How much provenance a what-if analysis records. Every what-if records
/// at least the summary: its phases are the engine's only timing channel.
///  - kSummary: phase breakdown, verdict totals and layer counters; no
///    per-txn vector. The default.
///  - kFull: everything, including one TxnExplain per suffix transaction.
///    BM_ExplainOverhead measures its cost over kSummary.
enum class ExplainLevel { kSummary, kFull };

/// Why a suffix transaction was (not) replayed. Exactly one verdict per
/// suffix position; new statements injected by the what-if op are reported
/// separately with is_new=true.
enum class TxnVerdict {
  kReplayed,              // closure member, re-executed
  kRetroTarget,           // the removed/changed statement itself
  kPrunedReadOnly,        // empty write set, cannot affect any state
  kPrunedStaticFootprint, // static table footprints provably disjoint
  kPrunedPredicateDisjoint,  // predicate regions provably disjoint (§15)
  kPrunedColumnDisjoint,  // no column-granularity dependency rule fired
  kHashJumpSkip,          // plan member never executed: digests converged
  kResultCacheHit,        // whole analysis served from the epoch result cache
};

inline constexpr int kNumTxnVerdicts = 8;

const char* TxnVerdictName(TxnVerdict v);
std::optional<TxnVerdict> TxnVerdictFromName(const std::string& name);

/// True for every verdict that claims the transaction did NOT run in the
/// what-if universe (the set --check-explain validates). kResultCacheHit is
/// a whole-report provenance mark (the analysis was memoized), not a claim
/// about any individual transaction, so it is excluded.
inline bool VerdictIsPrune(TxnVerdict v) {
  return v != TxnVerdict::kReplayed && v != TxnVerdict::kRetroTarget &&
         v != TxnVerdict::kResultCacheHit;
}

/// Per-transaction provenance (ExplainLevel::kFull only).
struct TxnExplain {
  uint64_t index = 0;      // query-log index
  bool is_new = false;     // statement injected by the what-if op
  TxnVerdict verdict = TxnVerdict::kReplayed;
  /// Human-readable one-liner; the machine-checkable facts live in the
  /// typed fields below.
  std::string evidence;
  std::vector<std::string> read_tables;
  std::vector<std::string> write_tables;
  /// Ordinal of this txn's column cluster in the plan, -1 if none.
  int64_t cluster_id = -1;
  /// Hex digest that justified a hash-jump, empty otherwise.
  std::string digest;
};

/// One analysis phase: wall time and process-CPU time, both microseconds.
struct PhaseBreakdown {
  std::string name;  // analyze | plan | stage | replay | publish
  uint64_t wall_us = 0;
  uint64_t cpu_us = 0;
};

/// Which strategy built the alternate universe (DESIGN.md §7.1). Under
/// ReplayMode::kAuto it also carries the evidence of the cost rule: the
/// column closure's members / scanned at the last checkpoint evaluated,
/// the density threshold θ and both cost estimates. A run that never
/// reached a checkpoint, did not ask for the rule, or had a plan the
/// journals cannot stage (built naively regardless) reports zeros.
struct StrategyChoice {
  std::string kind = "selective";  // selective | naive
  bool automatic = false;          // chosen by the kAuto cost rule
  uint64_t scanned = 0;            // suffix positions at the checkpoint
  uint64_t members = 0;            // column-closure members among them
  double theta = 0;                // bail out when members/scanned > θ
  uint64_t selective_est_us = 0;   // plan + projected member replay
  uint64_t naive_est_us = 0;       // prefix + whole-suffix re-execution
};

/// Retry / cancel / failpoint / fatal lifecycle events (PR 5 machinery).
struct LifecycleEvent {
  std::string kind;    // retry | cancel | failpoint | fatal
  std::string detail;
  uint64_t at_us = 0;  // NowMicros() timestamp
};

/// The structured result of one what-if analysis.
struct WhatIfReport {
  // --- identity ------------------------------------------------------------
  std::string op;            // add | remove | change
  uint64_t target_index = 0; // retro op commit index
  std::string mode;          // B | T | D | T+D
  ExplainLevel level = ExplainLevel::kSummary;

  // --- verdict totals (kSummary and up) ------------------------------------
  uint64_t suffix_size = 0;  // transactions after the target
  uint64_t replayed = 0;     // mirrors ReplayStats::replayed
  uint64_t skipped = 0;      // mirrors ReplayStats::skipped
  std::array<uint64_t, kNumTxnVerdicts> verdict_counts{};
  bool hash_jump = false;        // replay terminated early on a digest match
  uint64_t hash_jump_index = 0;  // log index where digests converged

  // --- strategy ------------------------------------------------------------
  StrategyChoice strategy;

  // --- phase breakdown -----------------------------------------------------
  /// Contiguous phases of one what-if, from one running clock: their wall
  /// times add up to the what-if's wall time (WallMicros()).
  std::vector<PhaseBreakdown> phases;

  // --- staging footprint ---------------------------------------------------
  uint64_t tables_staged = 0;
  uint64_t pages_faulted = 0;
  uint64_t staged_bytes = 0;

  // --- VM decisions (deltas over this analysis) ----------------------------
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t vm_index_path = 0;
  uint64_t vm_scan_path = 0;
  uint64_t vm_advisory_built = 0;
  uint64_t vm_tree_fallbacks = 0;  // VM-subset misses run by the tree walker

  // --- lifecycle -----------------------------------------------------------
  uint64_t retries = 0;
  uint64_t faults_injected = 0;
  std::vector<LifecycleEvent> events;

  // --- per-transaction detail (kFull only) ---------------------------------
  std::vector<TxnExplain> txns;

  uint64_t CountFor(TxnVerdict v) const {
    return verdict_counts[size_t(v)];
  }
  void Tally(TxnVerdict v) { ++verdict_counts[size_t(v)]; }
  /// Wall time of the whole what-if: the sum of its phases.
  uint64_t WallMicros() const {
    uint64_t total = 0;
    for (const auto& p : phases) total += p.wall_us;
    return total;
  }
  const TxnExplain* FindTxn(uint64_t index) const;

  /// Serialization. ToJson() emits a single self-contained object;
  /// FromJson() parses exactly what ToJson() wrote (round-trip tested) and
  /// returns nullopt on malformed input — it is what uvexplain --json
  /// consumers and the flight-recorder dump reader rely on.
  std::string ToJson() const;
  static std::optional<WhatIfReport> FromJson(const std::string& json);

  /// Human rendering for uvexplain: summary block, phase table, and (at
  /// kFull) the verdict table. txn_filter, when set, narrows the per-txn
  /// section to one log index (--txn drill-down).
  std::string ToText(std::optional<uint64_t> txn_filter = {}) const;
};

/// Process-CPU microseconds (CLOCK_PROCESS_CPUTIME_ID); pairs with
/// NowMicros() for the wall component of PhaseBreakdown.
uint64_t NowCpuMicros();

}  // namespace ultraverse::obs

#endif  // ULTRAVERSE_OBS_EXPLAIN_H_
