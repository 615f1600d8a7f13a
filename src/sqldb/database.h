#ifndef ULTRAVERSE_SQLDB_DATABASE_H_
#define ULTRAVERSE_SQLDB_DATABASE_H_

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/exec_engine.h"
#include "sqldb/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace ultraverse::sql {

namespace vm {
class Executor;
class PlanCache;
}  // namespace vm

/// Result of executing one statement.
struct ExecResult {
  std::vector<std::string> column_names;  // for SELECT
  std::vector<Row> rows;                  // for SELECT
  int64_t affected = 0;                   // for DML
};

/// Concrete values consumed by one top-level query execution that are not
/// functions of the database state: NOW()/RAND()/CURTIME() results and
/// AUTO_INCREMENT assignments. Recorded during regular operation and
/// re-injected during retroactive replay (§4.4 "Replaying Non-determinism").
struct NondetRecord {
  std::vector<Value> values;
  std::vector<int64_t> auto_inc_ids;
};

/// Per-execution context: procedure variable scopes, nondeterminism
/// record/replay channels, and control-flow flags.
class ExecContext {
 public:
  ExecContext() { PushScope(); }

  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }

  void DeclareVar(const std::string& name, Value v) {
    scopes_.back()[name] = std::move(v);
  }
  /// Sets an existing variable (innermost scope wins); declares in the
  /// innermost scope when absent.
  void SetVar(const std::string& name, Value v);
  /// Looks a variable up through the scope chain; nullptr when absent.
  const Value* FindVar(const std::string& name) const;

  /// Record mode: nondeterministic values are appended to `record`.
  void StartRecording(NondetRecord* record) { record_ = record; }
  /// Replay mode: nondeterministic values are consumed from `replay`.
  void StartReplaying(const NondetRecord* replay) {
    replay_ = replay;
    replay_value_cursor_ = 0;
    replay_auto_cursor_ = 0;
  }

  /// Returns the next nondeterministic value: consumes the replay record
  /// when available, otherwise calls `generate` (and records it).
  template <typename Fn>
  Value NextNondetValue(Fn&& generate) {
    if (replay_ && replay_value_cursor_ < replay_->values.size()) {
      return replay_->values[replay_value_cursor_++];
    }
    Value v = generate();
    if (record_) record_->values.push_back(v);
    return v;
  }

  /// Same protocol for AUTO_INCREMENT ids.
  template <typename Fn>
  int64_t NextAutoIncId(Fn&& generate) {
    if (replay_ && replay_auto_cursor_ < replay_->auto_inc_ids.size()) {
      return replay_->auto_inc_ids[replay_auto_cursor_++];
    }
    int64_t id = generate();
    if (record_) record_->auto_inc_ids.push_back(id);
    return id;
  }

  bool leave_requested = false;  // LEAVE unwinds the current procedure
  int trigger_depth = 0;

  /// When set, every procedure-variable assignment is appended here
  /// (name -> all values it held). The retroactive analyzer uses these to
  /// concretize symbolic RI values "at the moment of retroactive
  /// operation" (§4.3) instead of widening them to wildcards.
  void set_var_capture(std::map<std::string, std::vector<Value>>* capture) {
    var_capture_ = capture;
  }

 private:
  std::vector<std::unordered_map<std::string, Value>> scopes_;
  std::map<std::string, std::vector<Value>>* var_capture_ = nullptr;
  NondetRecord* record_ = nullptr;
  const NondetRecord* replay_ = nullptr;
  size_t replay_value_cursor_ = 0;
  size_t replay_auto_cursor_ = 0;
};

/// In-memory SQL database: catalog (tables, views, procedures, triggers,
/// indexes) plus the statement executor. Stands in for the paper's
/// unmodified MySQL server (see DESIGN.md substitution table).
///
/// Thread safety: Execute() is not internally synchronized; the replay
/// scheduler serializes conflicting queries via the dependency DAG and
/// guards shared tables with its own per-table locks.
class Database {
 public:
  Database();
  ~Database();

  /// Executes one statement. `commit_index` tags undo-journal entries so
  /// the whole statement (procedures/transactions included) can be undone
  /// atomically; pass a fresh, strictly increasing index per top-level
  /// query. On failure, partial effects are rolled back.
  Result<ExecResult> Execute(const Statement& stmt, uint64_t commit_index,
                             ExecContext* ctx);

  /// Convenience: parse + execute one statement with a scratch context.
  Result<ExecResult> ExecuteSql(const std::string& sql, uint64_t commit_index);

  // --- Catalog access -----------------------------------------------------
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;
  bool HasView(const std::string& name) const { return views_.count(name); }
  const std::shared_ptr<SelectStatement>* FindView(
      const std::string& name) const;
  const CreateProcedureStatement* FindProcedure(const std::string& name) const;
  const CreateTriggerStatement* FindTrigger(const std::string& name) const;
  std::vector<std::string> TableNames() const;
  std::vector<std::string> ProcedureNames() const;

  /// Rolls every table back to its state right after `commit_index`.
  void RollbackToIndex(uint64_t commit_index);
  /// Rolls only `tables` back (the §4.4 mutated/consulted-only rollback).
  void RollbackTablesToIndex(const std::vector<std::string>& tables,
                             uint64_t commit_index);

  /// Query-selective rollback: undoes exactly the journal entries of the
  /// given commits inside `tables` (Appendix E's M^-1(D, I); see
  /// Table::RollbackCommits for the column-masked UPDATE semantics).
  void RollbackCommitsInTables(const std::set<uint64_t>& commits,
                               const std::vector<std::string>& tables);

  /// Checkpoint support (rollback option (iii) of §5 Implementation):
  /// drops undo-journal entries older than `commit_index`. Retroactive
  /// targets older than the trim horizon then take the rebuild-from-log
  /// path instead of journal rollback.
  void TrimJournalsBefore(uint64_t commit_index);

  /// Publish reset (see Table::ResetJournal): drops the journals of
  /// `names` — or of every table when `names` is empty — and marks
  /// commits before `commit_index` as beyond journal reach.
  void ResetJournals(const std::vector<std::string>& names,
                     uint64_t commit_index);

  /// Copy-on-write copy of catalog + data (temporary replay database):
  /// every table is CoW-cloned (see Table::Clone), so the copy is cheap
  /// and memory is shared until either side writes.
  std::unique_ptr<Database> Clone() const;

  /// Selective staging (§4.4): CoW-clones only `names` (plus the full —
  /// cheap — catalog of views/procedures/triggers/auto-increment state).
  /// Combine with SetReadFallback so queries that stray outside the staged
  /// set still resolve against the live database.
  std::unique_ptr<Database> CloneTables(
      const std::vector<std::string>& names) const;

  /// Makes this (temporary) database resolve tables missing from its own
  /// catalog against `base`: the first access CoW-clones the table in
  /// (a fault-in, taken with `mu` held *shared* when provided, so
  /// concurrent fault-ins from many staged databases never serialize on
  /// the base — only writers of `base` take it exclusive). Retroactively
  /// dropped tables stay dropped — a local DROP wins over the fallback.
  /// Pass mu == nullptr when `base` is an immutable epoch-pinned snapshot:
  /// fault-ins are then lock-free (DESIGN.md §14).
  void SetReadFallback(const Database* base, std::shared_mutex* mu);

  /// Copies table contents of `names` from `src` into this database
  /// (the §4.4 "Database Update" step: mutated tables flow back).
  Status AdoptTables(const Database& src, const std::vector<std::string>& names);

  /// Adopts the full object catalog (views, procedures, triggers) from
  /// `src`. Retroactive DDL replayed in a temporary database — a removed
  /// CREATE VIEW/TRIGGER, say — propagates to the live database through
  /// this; AdoptTables alone only moves row data.
  void AdoptCatalog(const Database& src);

  std::vector<std::string> ViewNames() const;
  std::vector<std::string> TriggerNames() const;

  /// AUTO_INCREMENT high-watermark state: table -> next id to allocate.
  const std::map<std::string, int64_t>& auto_increment_state() const {
    return auto_increment_;
  }

  /// Raises AUTO_INCREMENT counters to at least `floors`; never lowers
  /// them. Replay paths that rebuild a temporary database from scratch
  /// (full-naive reference, journal-less rebuild) seed it with the live
  /// watermarks so a retroactively added INSERT allocates ids *above*
  /// every id the original history handed out — the one consistent policy
  /// that keeps fresh ids from colliding with replayed recorded ids and
  /// makes all replay modes agree (see DESIGN.md §9).
  void SeedAutoIncrementFloor(const std::map<std::string, int64_t>& floors);

  /// Full logical footprint (shared CoW state counted in full).
  size_t ApproxMemoryBytes() const;

  /// Bytes uniquely owned by this database: table state still shared with
  /// a CoW sibling counts only as a pointer. A freshly staged temporary
  /// database therefore reports only what staging actually allocated.
  size_t ApproxOwnedBytes() const;

  /// Logical clock feeding NOW()/CURTIME(); advances per call.
  int64_t NextTimestamp() { return ++logical_time_; }
  void SetLogicalTime(int64_t t) { logical_time_ = t; }
  int64_t logical_time() const { return logical_time_; }

  // --- Execution engine (see exec_engine.h) -------------------------------

  ExecEngine exec_engine() const { return exec_engine_; }
  void set_exec_engine(ExecEngine engine) { exec_engine_ = engine; }

  /// Monotone epoch bumped on every DDL statement (wherever it executes —
  /// top level, transaction, procedure, trigger), on catalog adoption and
  /// on CoW table fault-in. Compiled plans are keyed on it; a stale plan is
  /// unreachable by construction.
  uint64_t schema_version() const {
    return schema_version_.load(std::memory_order_relaxed);
  }

  /// Compiled-plan cache, shared (same object) with CoW clones of this
  /// database so replay re-execution starts warm.
  vm::PlanCache* plan_cache() const { return plan_cache_.get(); }

 private:
  friend class Evaluator;
  friend class vm::Executor;

  // DDL.
  Result<ExecResult> ExecCreateTable(const CreateTableStatement& stmt);
  Result<ExecResult> ExecAlterTable(const AlterTableStatement& stmt);
  Result<ExecResult> ExecDropTable(const Statement& stmt);
  Result<ExecResult> ExecTruncate(const std::string& table);
  Result<ExecResult> ExecCreateView(const CreateViewStatement& stmt);
  Result<ExecResult> ExecCreateIndex(const CreateIndexStatement& stmt);

  // DML.
  Result<ExecResult> ExecInsert(const InsertStatement& stmt,
                                uint64_t commit_index, ExecContext* ctx);
  Result<ExecResult> ExecUpdate(const UpdateStatement& stmt,
                                uint64_t commit_index, ExecContext* ctx);
  Result<ExecResult> ExecDelete(const DeleteStatement& stmt,
                                uint64_t commit_index, ExecContext* ctx);
  Result<ExecResult> ExecCall(const CallStatement& stmt, uint64_t commit_index,
                              ExecContext* ctx);
  Status ExecBlock(const std::vector<StatementPtr>& body,
                   uint64_t commit_index, ExecContext* ctx);

  Status FireTriggers(const std::string& table, TriggerEvent event,
                      const Row* old_row, const Row* new_row,
                      uint64_t commit_index, ExecContext* ctx);

  /// Resolves an updatable view to its base table + extra WHERE; returns
  /// the table name unchanged when it is a real table.
  Result<std::string> ResolveWritableTarget(const std::string& name,
                                            ExprPtr* extra_where) const;

  std::map<std::string, std::unique_ptr<Table>> tables_;

  /// Read fallback for selectively staged databases (§4.4). When set,
  /// FindTable faults missing tables in from `read_base_` as CoW clones.
  /// `catalog_mu_` guards `tables_`/`dropped_` only while a fallback is
  /// configured (a fault-in mutates the catalog from inside a lookup, so
  /// lookups from several threads must not race it); databases without a
  /// fallback take the uncontended path.
  const Database* read_base_ = nullptr;
  std::shared_mutex* read_base_mu_ = nullptr;
  /// Base schema version captured at SetReadFallback time. While the base
  /// still sits at this version its catalog has not drifted from what this
  /// staged database inherited, so a fault-in materializes state the
  /// inherited schema_version_ already describes — no bump needed, and
  /// plans compiled by the base stay warm. After base DDL the versions
  /// differ and fault-ins take a fresh epoch (see FindTable).
  uint64_t fallback_base_version_ = 0;
  mutable std::shared_mutex catalog_mu_;
  std::set<std::string> dropped_;  // locally dropped: never fault back in

  std::map<std::string, std::shared_ptr<SelectStatement>> views_;
  std::map<std::string, CreateProcedureStatement> procedures_;
  std::map<std::string, CreateTriggerStatement> triggers_;
  std::map<std::string, int64_t> auto_increment_;  // table -> next id

  int64_t logical_time_ = 0;
  Rng rng_;

  ExecEngine exec_engine_;                 // set from DefaultExecEngine()
  std::atomic<uint64_t> schema_version_;   // process-global epoch values
  std::shared_ptr<vm::PlanCache> plan_cache_;
};

}  // namespace ultraverse::sql

#endif  // ULTRAVERSE_SQLDB_DATABASE_H_
