#ifndef ULTRAVERSE_CORE_RW_SETS_H_
#define ULTRAVERSE_CORE_RW_SETS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/predicate.h"
#include "sqldb/ast.h"
#include "sqldb/query_log.h"
#include "util/status.h"

namespace ultraverse::core {

/// Column-wise read/write sets (§4.2). Elements are "Table.column" names,
/// or "_S.<name>" entries of the virtual schema-monitoring table (Appendix
/// A): DDL writes _S.<name>, every query reading an object reads it.
struct ColumnSet {
  std::set<std::string> items;

  bool Contains(const std::string& s) const { return items.count(s) > 0; }
  void Add(std::string s) { items.insert(std::move(s)); }
  void Merge(const ColumnSet& other) {
    items.insert(other.items.begin(), other.items.end());
  }
  bool Intersects(const ColumnSet& other) const;
  bool empty() const { return items.empty(); }
};

/// Row-wise read/write sets (§4.3): per RI column, the typed region of
/// RI values the query touches (DESIGN.md §15) — ⊤ (any row), a finite
/// set of encoded RI values, typed intervals, or a union of those. The
/// column is qualified ("Users.uid") or a schema pseudo-row ("_S.Users").
/// Every contribution joins into its key, so the result does not depend
/// on the order of the contributions.
struct RowSet {
  std::map<std::string, ValueRegion> cols;

  void AddWildcard(const std::string& column) {
    cols[column] = ValueRegion::Top();
  }
  void AddValue(const std::string& column, const std::string& value_enc) {
    cols.try_emplace(column, ValueRegion::EmptySet())
        .first->second.AddPoint(value_enc);
  }
  /// One statement's row contribution for `column`: the classic RI values
  /// (nullopt = any row) met with the predicate region extracted from the
  /// same WHERE clause, joined into the key.
  void AddConstrained(const std::string& column,
                      const std::optional<std::set<std::string>>& values,
                      const ValueRegion& region);
  void Merge(const RowSet& other);
  /// True when the regions of some shared key overlap. Two range keys
  /// with provably disjoint regions (e.g. id<10 vs id>=10) do NOT
  /// intersect. Sound on canonicalized sets (CanonicalizeRowSets makes
  /// merged RI values compare equal) and on raw same-analyzer pairs.
  bool RegionIntersects(const RowSet& other) const;
  bool empty() const { return cols.empty(); }
};

/// Per-query analysis record: both granularities plus bookkeeping used by
/// the benchmarks (Ultraverse log size, Table 7(b)).
struct QueryRW {
  ColumnSet rc, wc;
  RowSet rr, wr;

  /// Tables named in the write set (mutated candidates) / read set.
  std::set<std::string> write_tables;
  std::set<std::string> read_tables;

  /// True for schema-changing statements: retroactive replay of these
  /// requires rebuilding the temporary database from a checkpoint.
  bool is_ddl = false;

  /// True when the query can modify or destroy *pre-existing* rows or
  /// catalog state (UPDATE, DELETE, DDL — directly or via a trigger /
  /// procedure body). Pure INSERTs only create rows, so their writes can
  /// never clobber a cell an earlier replayed write produced; the
  /// write-write closure rule in ComputeReplayPlan joins a non-overwriting
  /// query only when an accumulated *overwriting* write could touch its
  /// staged rows.
  bool overwrites = false;

  /// Serialized size of Ultraverse's per-query dependency log record.
  size_t ApproxLogBytes() const;
};

/// Table-level projection of a QueryRW: every table named by its column
/// sets, row sets or table sets ("_S.T" entries project to T). Used as a
/// cheap sound pre-filter during dependency planning: two QueryRWs whose
/// footprints are disjoint cannot intersect in any granularity, so the
/// expensive ColumnSet/RowSet intersections can be skipped outright.
struct TableFootprint {
  std::set<std::string> tables;
  /// Conservative escape hatch: a universal footprint intersects
  /// everything (used when a statement could not be summarized).
  bool universal = false;

  void Merge(const TableFootprint& other);
  bool Intersects(const TableFootprint& other) const;
};

/// Computes the footprint of `rw` (table prefixes of rc/wc items and
/// rr/wr keys, plus read_tables/write_tables).
TableFootprint FootprintOf(const QueryRW& rw);

/// Catalog snapshot the analyzer evolves as it walks DDL in the log. It
/// mirrors the database catalog but is independent so analysis can run on a
/// copied log on another machine (§5.3).
class SchemaRegistry {
 public:
  struct TableInfo {
    std::vector<sql::ColumnDef> columns;
    std::vector<sql::ForeignKey> foreign_keys;
    std::string ri_column;                 // row-identifier column (§4.3)
    std::vector<std::string> ri_aliases;   // alias RI columns
  };

  /// Applies DDL effects (CREATE/DROP/ALTER of tables/views/procs/triggers).
  void ApplyDdl(const sql::Statement& stmt);

  const TableInfo* FindTable(const std::string& name) const;
  TableInfo* FindTableMutable(const std::string& name);
  const sql::CreateProcedureStatement* FindProcedure(
      const std::string& name) const;
  const std::shared_ptr<sql::SelectStatement>* FindView(
      const std::string& name) const;
  /// Triggers firing on (table, event).
  std::vector<const sql::CreateTriggerStatement*> TriggersOn(
      const std::string& table, sql::TriggerEvent event) const;
  const sql::CreateTriggerStatement* FindTrigger(
      const std::string& name) const;
  /// Tables whose foreign keys reference `table`.
  std::vector<std::string> TablesReferencing(const std::string& table) const;

  /// Declares the RI column for a table (defaults to its primary key when
  /// the table is created). See RiSelector for automatic selection.
  void SetRiColumn(const std::string& table, const std::string& column);
  void AddRiAlias(const std::string& table, const std::string& alias_column);

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ProcedureNames() const;

 private:
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, std::shared_ptr<sql::SelectStatement>> views_;
  std::map<std::string, sql::CreateProcedureStatement> procedures_;
  std::map<std::string, sql::CreateTriggerStatement> triggers_;
};

/// Hook invoked around each statement's dynamic analysis. The static
/// soundness checker (src/analysis) implements this to compute a static
/// summary against the pre-statement registry state (BeforeStatement) and
/// assert containment of the raw dynamic sets (AfterStatement). Core only
/// defines the interface; it never depends on the analysis layer.
class AnalysisObserver {
 public:
  virtual ~AnalysisObserver() = default;
  /// Called before the statement's analysis mutates any analyzer state.
  virtual void BeforeStatement(const sql::Statement& stmt) = 0;
  /// Called with the raw (uncanonicalized) per-statement sets.
  virtual void AfterStatement(const sql::Statement& stmt,
                              const QueryRW& raw) = 0;
};

/// Derives per-query R/W sets from a committed-query log. The analyzer is
/// the asynchronous background "query analyzer" of Figure 2: it replays
/// DDL into its SchemaRegistry, learns alias-RI mappings and merged RI
/// values, and emits a QueryRW per log entry.
///
/// There is one statement walker (rw_sets.cc). QueryAnalyzer runs it in
/// the concrete domain, which reads the runtime facts of each entry:
/// variable values, the NondetRecord's auto-increment ids, captured
/// SELECT ... INTO values, the learned alias→RI map and the RI-merge
/// union-find. AnalyzeAbstract below runs the same walker without any of
/// them, for the static analysis in src/analysis (DESIGN.md §10).
class QueryAnalyzer {
 public:
  QueryAnalyzer() = default;

  struct RiConfig {
    std::string ri_column;
    std::vector<std::string> aliases;
    bool operator==(const RiConfig&) const = default;
  };

  SchemaRegistry* registry() { return &registry_; }
  const SchemaRegistry* registry() const { return &registry_; }

  /// RI configuration overrides installed via ConfigureRi, exposed so the
  /// static analyzer can apply them when it walks intra-statement DDL
  /// against its own scratch registry.
  const std::map<std::string, RiConfig>& ri_configs() const {
    return ri_overrides_;
  }

  /// Installs (or clears, with nullptr) the analysis observer. At most one
  /// observer is active; the caller owns its lifetime and must detach
  /// before destroying it.
  void set_observer(AnalysisObserver* observer) { observer_ = observer; }
  AnalysisObserver* observer() const { return observer_; }

  /// Configures the RI column (and optional alias columns) used for table
  /// `table` in row-wise analysis. Overrides survive re-analysis: they are
  /// re-applied whenever the table's CREATE TABLE is (re)processed.
  /// Without a configuration the primary key is selected (see RiSelector).
  void ConfigureRi(const std::string& table, const std::string& ri_column,
                   std::vector<std::string> aliases = {});

  /// Analyzes the complete log (two passes: extraction + canonicalization
  /// under the final merged-RI union-find). Entry i of the result aligns
  /// with log entry index i+1.
  Result<std::vector<QueryRW>> AnalyzeLog(const sql::QueryLog& log);

  /// Analyzes a single statement against the current registry state
  /// (used for retroactive target queries that are not in the log).
  Result<QueryRW> AnalyzeStatement(const sql::Statement& stmt,
                                   const sql::NondetRecord* nondet);

  /// Incremental pass-1 analysis of one newly committed entry: evolves the
  /// registry / alias / merge state and returns the raw (uncanonicalized)
  /// sets. Callers canonicalize with CanonicalizeRowSets before matching.
  Result<QueryRW> AnalyzeEntry(const sql::LogEntry& entry);

  /// Rewrites RI values in `rw` to their merged-RI representatives under
  /// the current union-find (§4.3 "Merging RI values"): the points of a
  /// points-only region become representatives; any other non-⊤ region
  /// is closed under the merge classes it touches.
  void CanonicalizeRowSets(QueryRW* rw);

  /// Number of effective RI merges so far. CanonicalizeRowSets is a pure
  /// function of the union-find, so a canonicalized QueryRW stays valid
  /// exactly as long as this generation does not advance — the incremental
  /// analysis maintenance in the facade re-canonicalizes already-emitted
  /// entries only when it does (DESIGN.md §14).
  uint64_t merge_generation() const { return merge_generation_; }

 private:
  friend class RwWalker;
  SchemaRegistry registry_;
  AnalysisObserver* observer_ = nullptr;
  std::map<std::string, RiConfig> ri_overrides_;
  // Union-find over canonical RI value keys ("Table.col|value_enc").
  std::map<std::string, std::string> merge_parent_;
  uint64_t merge_generation_ = 0;  // bumped per effective Union
  // Alias translation: "Table.alias|value_enc" -> set of RI value encs.
  std::map<std::string, std::set<std::string>> alias_to_ri_;
  // The union-find's classes grouped by column (rw_sets.cc), built on first
  // use per merge generation and shared by copies of the analyzer.
  struct MergeClassIndex;
  std::shared_ptr<const MergeClassIndex> merge_classes_;
  uint64_t merge_classes_gen_ = 0;

  std::string Find(const std::string& key);
  void Union(const std::string& a, const std::string& b);
  const MergeClassIndex& MergeClasses();
};

/// Facts only the abstract domain records; src/analysis's StaticSummary
/// carries them for the lint pass.
struct LintFacts {
  /// True when the statement contains DDL anywhere, including nested in a
  /// procedure body reached through CALL — a Hash-jumper hazard the lint
  /// pass reports (dynamic is_ddl only marks top-level DDL).
  bool has_ddl = false;

  /// Nondeterministic SQL builtins referenced anywhere in the statement
  /// (upper-cased names from util/nondet_builtins.h).
  std::set<std::string> nondet_builtins;

  /// "Table.column" writes naming columns absent from the table's current
  /// schema — dead branches writing dropped columns, or typos.
  std::vector<std::string> dead_column_writes;
};

/// Runs the statement walker in the abstract domain: no runtime facts, so
/// variables carry no values, folding is literal-only, alias-RI lookups
/// and auto-increment ids widen to wildcards and no RI merge is learned.
/// Nested DDL also marks `rw->is_ddl` / `overwrites`. `registry` evolves
/// through the statement's DDL, with `ri_configs` applied to every table
/// the statement (re)creates. `lint` must not be null.
Status AnalyzeAbstract(
    const sql::Statement& stmt, SchemaRegistry* registry,
    const std::map<std::string, QueryAnalyzer::RiConfig>& ri_configs,
    QueryRW* rw, LintFacts* lint);

/// AnalyzeAbstract over a stored procedure's body, with its parameters
/// bound as value-less variables.
Status AnalyzeAbstractBody(
    const sql::CreateProcedureStatement& proc, SchemaRegistry* registry,
    const std::map<std::string, QueryAnalyzer::RiConfig>& ri_configs,
    QueryRW* rw, LintFacts* lint);

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_RW_SETS_H_
