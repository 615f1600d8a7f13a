#ifndef ULTRAVERSE_ANALYSIS_STATIC_RW_H_
#define ULTRAVERSE_ANALYSIS_STATIC_RW_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/rw_sets.h"
#include "sqldb/query_log.h"
#include "util/status.h"

namespace ultraverse::analysis {

/// All-paths static over-approximation of one statement's (or procedure
/// body's) read/write behaviour: the same ColumnSet/RowSet shapes the
/// dynamic analyzer emits (§4.2–4.3), computed without any runtime
/// information. The soundness invariant is containment — for every
/// execution of the statement, the dynamic QueryRW is a subset of `rw`
/// (see soundness.h and DESIGN.md §10 for the argument). The lint facts
/// (has_ddl, nondet_builtins, dead_column_writes) come from the base.
struct StaticSummary : core::LintFacts {
  core::QueryRW rw;

  /// Table-level projection of `rw`, for the planner pre-filter.
  core::TableFootprint footprint;
};

/// Static RW-summary inference over sqldb ASTs. Every summary is the
/// dynamic analyzer's own statement walker run in its abstract domain
/// (core::AnalyzeAbstract), which reads none of the runtime facts the
/// concrete domain reads. So
///
///   - procedure variables and parameters are bound by name only, with
///     the same scoping, so bare-column-vs-variable disambiguation is
///     identical;
///   - constant folding covers literals only, with the same fold code, so
///     wherever the static pass resolves a concrete RI value the dynamic
///     pass resolves the *same* value;
///   - captured variables, nondet records, auto-increment ids and learned
///     alias→RI maps all degrade to wildcards.
///
/// Two modes:
///   - owned (default ctor): the analyzer evolves its own SchemaRegistry
///     as AnalyzeNext walks DDL, exactly like the dynamic analyzer's
///     registry evolves with the log;
///   - follower (registry ctor): Summarize copies the followed registry
///     into a scratch per call, so intra-statement DDL is visible to the
///     rest of the walk without mutating shared state. Used by the
///     soundness checker, whose followed registry is the dynamic
///     analyzer's own.
class StaticAnalyzer {
 public:
  StaticAnalyzer();
  explicit StaticAnalyzer(const core::SchemaRegistry* follow);

  /// Like QueryAnalyzer::ConfigureRi, for tables (re)created during a
  /// walk: the override is applied right after the scratch registry
  /// processes the CREATE TABLE, keeping RowSet keys aligned with the
  /// dynamic side.
  void SetRiOverride(const std::string& table, const std::string& ri_column,
                     std::vector<std::string> aliases = {});
  /// Replaces all overrides with the dynamic analyzer's current set.
  void SyncRiOverrides(
      const std::map<std::string, core::QueryAnalyzer::RiConfig>& configs);

  /// Static summary of one statement against the current registry state.
  /// Does not mutate the analyzer (the walk runs on a scratch copy).
  Result<StaticSummary> Summarize(const sql::Statement& stmt) const;

  /// Owned mode only: summarizes `stmt` while evolving the owned registry
  /// through any DDL it contains, the way the dynamic analyzer's registry
  /// evolves entry by entry.
  Result<StaticSummary> AnalyzeNext(const sql::Statement& stmt);

  /// Cached all-paths summary of a stored procedure's body, parameters
  /// abstracted to wildcards. Covers the body only (the `_S.<proc>` read
  /// a CALL statement records is a call-site artifact). Errors when the
  /// procedure is unknown. The cache is invalidated whenever AnalyzeNext
  /// walks DDL.
  Result<const StaticSummary*> ProcedureSummary(const std::string& name);
  void InvalidateProcedureCache() { procedure_cache_.clear(); }

  const core::SchemaRegistry& registry() const {
    return follow_ ? *follow_ : owned_;
  }

 private:
  core::SchemaRegistry owned_;
  const core::SchemaRegistry* follow_ = nullptr;
  std::map<std::string, core::QueryAnalyzer::RiConfig> ri_overrides_;
  std::map<std::string, StaticSummary> procedure_cache_;
};

/// Per-entry static footprints of a whole log, aligned with the dynamic
/// analysis vector (element i ↔ log index i+1): feed the result to
/// DependencyOptions::static_footprints. Entries that fail static
/// summarization get a universal footprint (never skipped — sound).
std::vector<core::TableFootprint> StaticLogFootprints(
    const sql::QueryLog& log);

}  // namespace ultraverse::analysis

#endif  // ULTRAVERSE_ANALYSIS_STATIC_RW_H_
