#ifndef ULTRAVERSE_CORE_DEP_GRAPH_H_
#define ULTRAVERSE_CORE_DEP_GRAPH_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/rw_sets.h"

namespace ultraverse::core {

/// Which granularities participate in dependency pruning. T+D uses both
/// (Theorem 20: replay 𝕀_c ∩ 𝕀_r); the column-only configuration is the
/// ablation of §4.2 without §4.3. Both run as one column-closure pass:
/// `row_wise` adds the row-region veto that makes it 𝕀_c ∩ 𝕀_r (see
/// ComputeReplayPlan).
struct DependencyOptions {
  bool column_wise = true;
  bool row_wise = true;

  /// Optional static pre-filter (produced by src/analysis): entry i is a
  /// table-level footprint that over-approximates analysis[i]'s footprint
  /// (static summary ⊇ dynamic sets, so static footprint ⊇ dynamic
  /// footprint). During closure computation a candidate whose *static*
  /// footprint is disjoint from the accumulated member footprint cannot
  /// satisfy any closure rule, so its ColumnSet intersections are skipped
  /// outright. nullptr disables the pre-filter.
  const std::vector<TableFootprint>* static_footprints = nullptr;

  /// Record per-suffix-position exclusion provenance into
  /// ReplayPlan::exclusions. The replay engine sets it at every
  /// ExplainLevel (the report's verdict totals come from it); off by
  /// default for other planners: the vector costs one byte per suffix
  /// transaction.
  bool record_exclusions = false;

  /// Suffix log indices seeded into the closure as unconditional members
  /// (the `--check-explain` counterfactual knob). Seeding — rather than a
  /// post-hoc merge into the plan — keeps the closure invariant intact:
  /// later writers of a forced member's cells join through the ordinary
  /// rules, so the query-selective rollback stays sound. nullptr = none.
  const std::set<uint64_t>* forced_members = nullptr;

  /// Strategy checkpoint hook (DESIGN.md §7.1): when set, the closure pass
  /// calls it after kFirstStrategyCheckpoint scanned suffix positions and
  /// again at every doubling (512, 1024, …), with the positions scanned so
  /// far and the members joined among them.
  /// Returning true abandons the plan (ReplayPlan::abandoned): the caller
  /// rebuilds the universe by full re-execution instead. Only the replay
  /// engine sets it (ReplayMode::kAuto); null plans to completion.
  std::function<bool(size_t scanned, size_t members)> checkpoint;
};

/// First scanned-position count at which DependencyOptions::checkpoint
/// runs; a suffix no longer than this is always planned to completion.
inline constexpr size_t kFirstStrategyCheckpoint = 256;

/// Why a suffix position did or did not join the replay plan. Sound by
/// construction: recorded at the exact skip/join sites of the single
/// monotone ascending closure pass.
enum class PlanExclusion : uint8_t {
  kMember,             // in the replay set
  kTargetSlot,         // the occupied retro-target slot itself
  kReadOnly,           // empty write set: can never join any closure
  kStaticDisjoint,     // static table footprint disjoint from accumulators
  kPredicateDisjoint,  // a column rule fired; row regions refuted it
  kColumnDisjoint,     // no column-granularity dependency rule fired
};

/// The pruned rollback & replay plan for one retroactive operation.
struct ReplayPlan {
  /// Log indices (1-based) to roll back and replay, ascending. For a
  /// retroactive *remove*, the target itself is excluded from replay (but
  /// still rolled back). For add/change the new query executes at τ.
  std::vector<uint64_t> replay_indices;

  /// §4.4 table classification.
  std::set<std::string> mutated_tables;
  std::set<std::string> consulted_tables;

  /// True when the plan involves schema (DDL) replay: table journals
  /// cannot undo it, so the engine re-executes the history naively.
  bool needs_schema_rebuild = false;

  /// When DependencyOptions::record_exclusions is set: exclusions[j]
  /// explains log index exclusions_base + j, for the whole suffix
  /// [target_index, history]. Empty otherwise.
  std::vector<PlanExclusion> exclusions;
  uint64_t exclusions_base = 0;

  /// Parallel to exclusions when recorded: the ordinal of the position
  /// among the plan's members (its cluster id), or -1 for a non-member.
  std::vector<int32_t> cluster_ids;

  /// DependencyOptions::checkpoint stopped the closure pass early: every
  /// other field is empty, and the plan must not be executed.
  bool abandoned = false;
};

/// Computes the replay set 𝕀 of Appendix E: the closure of queries
/// (write-sets non-empty) that depend on the target or on another member
/// (Prop. 7, transitive via ascending order), plus every later writer to a
/// cell read by a member (Props. 9/10, which keep consulted tables
/// replayable), plus every later writer to a cell the target or a member
/// wrote (write-write: its value must land after the replayed writes, the
/// same ordering the conflict DAG enforces between scheduled slots).
///
/// One ascending pass computes the column closure 𝕀_c. With `row_wise` on,
/// a candidate a column rule admits is vetoed when its typed row regions
/// are provably disjoint from the target's and members' (DESIGN.md §15).
/// That pass alone yields Theorem 20's 𝕀_c ∩ 𝕀_r: a typed-region overlap
/// implies a classic row overlap, so by induction over the pass every
/// member also joins the row closure (given wc ≠ ∅ ⇒ wr ≠ ∅, which
/// PredicatePrefilterTest.OnePassPremiseHolds pins).
///
/// `analysis[i]` corresponds to log index i+1. `target_rw` is the R/W set
/// of the retroactive target: for remove it is the old query's sets; for
/// add it is the new query's; for change the union of both.
///
/// `target_occupies_slot` is true when the target *is* log[target_index]
/// (remove/change — that commit is excluded from the suffix scan, its sets
/// being seeded into the accumulators instead) and false for add, where the
/// new query is inserted *before* log[target_index] and that commit remains
/// an ordinary suffix candidate.
ReplayPlan ComputeReplayPlan(const std::vector<QueryRW>& analysis,
                             uint64_t target_index, const QueryRW& target_rw,
                             bool target_occupies_slot,
                             const DependencyOptions& options);

/// Evidence for the kPredicateDisjoint positions of a plan computed with
/// record_exclusions: the candidate's typed row regions against the
/// target's and the earlier members' — the accumulators the veto refuted
/// it against, rebuilt by joining the members in index order. One string
/// per exclusions slot, empty elsewhere. Built only for kFull reports.
std::vector<std::string> PredicateEvidence(
    const std::vector<QueryRW>& analysis, const QueryRW& target_rw,
    const ReplayPlan& plan);

/// Conflict edges for dependency-ordered scheduling (§4.4; TxnScheduler
/// runs independent transactions concurrently over them): a replay arrow
/// Qn -> Qm exists when n < m and the two queries conflict (read-write,
/// write-read, or write-write) on the same column and RI value ("cell").
/// `ordered` is the replay sequence in commit order; the result holds, for
/// each position i, the predecessor positions that must complete first.
std::vector<std::vector<uint32_t>> BuildConflictDag(
    const std::vector<const QueryRW*>& ordered);

/// Length of the longest path through BuildConflictDag(ordered), counted in
/// queries (0 for an empty sequence), from one pass that keeps the deepest
/// position per cell instead of edge lists. This is the number of round
/// trips a replay that overlaps independent chains cannot hide (§4.4).
uint32_t ConflictCriticalPath(const std::vector<const QueryRW*>& ordered);

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_DEP_GRAPH_H_
