#ifndef ULTRAVERSE_CORE_DEP_GRAPH_H_
#define ULTRAVERSE_CORE_DEP_GRAPH_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/rw_sets.h"

namespace ultraverse::core {

/// Which granularities participate in dependency pruning. T+D uses both
/// (Theorem 20: replay 𝕀_c ∩ 𝕀_r); the column-only configuration is the
/// ablation of §4.2 without §4.3.
struct DependencyOptions {
  bool column_wise = true;
  bool row_wise = true;

  /// Optional static pre-filter (produced by src/analysis): entry i is a
  /// table-level footprint that over-approximates analysis[i]'s footprint
  /// (static summary ⊇ dynamic sets, so static footprint ⊇ dynamic
  /// footprint). During closure computation a candidate whose *static*
  /// footprint is disjoint from the accumulated member footprint cannot
  /// satisfy any closure rule, so its ColumnSet/RowSet intersections are
  /// skipped outright. nullptr disables the pre-filter.
  const std::vector<TableFootprint>* static_footprints = nullptr;

  /// Third pre-filter tier (DESIGN.md §15), after the table-footprint
  /// filter above: a candidate whose symbolic predicate regions are
  /// provably disjoint from the accumulated members' regions — reads vs
  /// accumulated writes, writes vs accumulated reads, writes vs
  /// accumulated (overwriting) writes — touches no member row in any
  /// replay universe, so it is skipped before the closure rules run.
  /// Works in both granularity passes (it is what gives the column pass
  /// row-level pruning power) and on its own carries the
  /// `pruned-predicate-disjoint` explain verdict.
  bool predicate_filter = true;

  /// Record per-suffix-position exclusion provenance into
  /// ReplayPlan::exclusions (ExplainLevel::kFull). Off by default: the
  /// vector costs one byte per suffix transaction.
  bool record_exclusions = false;

  /// Suffix log indices seeded into the closure as unconditional members
  /// (the `--check-explain` counterfactual knob). Seeding — rather than a
  /// post-hoc merge into the plan — keeps the closure invariant intact:
  /// later writers of a forced member's cells join through the ordinary
  /// rules, so the query-selective rollback stays sound. nullptr = none.
  const std::set<uint64_t>* forced_members = nullptr;
};

/// Why a suffix position did or did not join the replay plan. Sound by
/// construction: causes are recorded at the exact skip/join sites of the
/// single monotone ascending closure pass, then merged across granularities
/// (column verdicts dominate; a column member rejected by the row closure is
/// the Theorem-20 intersection at work → kClusterExcluded).
enum class PlanExclusion : uint8_t {
  kMember,             // in the replay set
  kTargetSlot,         // the occupied retro-target slot itself
  kReadOnly,           // empty write set: can never join any closure
  kStaticDisjoint,     // static table footprint disjoint from accumulators
  kPredicateDisjoint,  // predicate regions disjoint from accumulators
  kColumnDisjoint,     // no column-granularity dependency rule fired
  kClusterExcluded,    // column member, excluded by the row-closure intersect
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

  /// True when the plan involves schema (DDL) replay: the engine must then
  /// rebuild the temporary database from a checkpoint instead of undoing
  /// table journals.
  bool needs_schema_rebuild = false;

  /// When DependencyOptions::record_exclusions is set: exclusions[j]
  /// explains log index exclusions_base + j, for the whole suffix
  /// [target_index, history]. Empty otherwise.
  std::vector<PlanExclusion> exclusions;
  uint64_t exclusions_base = 0;

  /// Parallel to exclusions when recorded: the ordinal of the position in
  /// the *column* closure (its cluster id), or -1 when it never joined the
  /// column-granularity replay set.
  std::vector<int32_t> cluster_ids;

  /// Parallel to exclusions when recorded: human-readable evidence for
  /// kPredicateDisjoint positions (the disjoint region pair that refuted
  /// the dependency), empty string elsewhere.
  std::vector<std::string> exclusion_detail;
};

/// Computes the replay set 𝕀 of Appendix E: the closure of queries
/// (write-sets non-empty) that depend on the target or on another member
/// (Prop. 7, transitive via ascending order), plus every later writer to a
/// cell read by a member (Props. 9/10, which keep consulted tables
/// replayable), plus every later writer to a cell the target or a member
/// wrote (write-write: its value must land after the replayed writes, the
/// same ordering the conflict DAG enforces between scheduled slots).
/// Column-wise and row-wise sets are computed independently and
/// intersected (Theorem 20).
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
