#ifndef ULTRAVERSE_CORE_REPLAY_H_
#define ULTRAVERSE_CORE_REPLAY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dep_graph.h"
#include "core/history.h"
#include "core/rw_sets.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "sqldb/database.h"
#include "sqldb/query_log.h"
#include "util/cancellation.h"
#include "util/retry.h"
#include "util/status.h"

namespace ultraverse::sql {
class Wal;  // durable write-ahead query log (sqldb/wal/wal.h)
}  // namespace ultraverse::sql

namespace ultraverse::core {

/// How the replay engine reacts to a failed slot (DESIGN.md §11). The old
/// policy — swallow anything but kInternal — silently ate transient
/// infrastructure faults and cancellations alike; the classification makes
/// the three distinct fates explicit and testable.
enum class ReplayErrorClass {
  /// SQL-semantic failure that can legitimately happen in the alternate
  /// universe (constraint trip, table dropped retroactively, SIGNAL,
  /// interpreter budget): the statement's own effects rolled back
  /// atomically, the replay continues without it.
  kBenignSkip,
  /// Transient infrastructure fault (kUnavailable — e.g. an injected
  /// failpoint standing in for a flaky DBMS connection): retried with
  /// bounded backoff; escalates to fatal when the budget is exhausted.
  kRetryable,
  /// Engine invariant breakage (kInternal), durable-log corruption
  /// (kDataLoss) or cooperative cancellation/deadline: abort the replay;
  /// nothing is adopted, the live database stays untouched.
  kFatal,
};

ReplayErrorClass ClassifyReplayError(const Status& st);

/// A retroactive operation (§4): add a new query right before commit index
/// `index`, remove the query at `index`, or change it to `new_stmt`.
struct RetroOp {
  enum class Kind { kAdd, kRemove, kChange };
  Kind kind = Kind::kRemove;
  uint64_t index = 0;            // τ (1-based commit index)
  sql::StatementPtr new_stmt;    // for kAdd / kChange
  std::string new_sql;           // textual form of new_stmt (logging)
};

/// How the retroactive engine reconstructs the alternate universe.
enum class ReplayMode {
  /// The paper's protocol (§4.4): roll back only mutated/consulted tables
  /// and replay only dependent queries, with optional Hash-jumper cutoff.
  kSelective,
  /// Ground-truth reference for the differential oracle (DESIGN.md §9):
  /// rebuild a fresh database by naively re-executing the entire rewritten
  /// history — no pruning, no Hash-jumper, no CoW staging. Slow but
  /// trivially correct; selective replay must match it bit-for-bit.
  kFullNaive,
  /// Per-what-if choice between the two (DESIGN.md §7.1): plan selectively,
  /// but at the column closure's checkpoints (DependencyOptions::checkpoint)
  /// compare a count-based cost estimate of finishing selectively against
  /// full re-execution, and switch to kFullNaive when the closure is
  /// projected to cover so much of the suffix that re-executing everything
  /// is cheaper. Deterministic: counts and constants only, never timings.
  /// Forced replay members (Options::forced_replay) pin kSelective.
  kAuto,
};

/// A configurable human-decision rule (§6 "Replaying Interactive Human
/// Decisions"): during what-if replay, an application transaction is
/// suppressed when the rule's condition holds in the evolving alternate
/// universe — e.g. "suppress Alice's StockPurchase while the symbol trades
/// above her threshold".
struct ReplayRule {
  /// Application transaction the rule applies to (empty = any app txn).
  std::string function;
  /// SQL SELECT evaluated against the temporary database right before the
  /// entry would replay; a truthy first cell fires the rule.
  std::string when_sql;
  /// What happens when the rule fires (suppression is the paper's example;
  /// the enum leaves room for arg-rewriting policies).
  enum class Action { kSuppress } action = Action::kSuppress;
};

/// Outcome metrics of one retroactive operation.
struct ReplayStats {
  size_t history_size = 0;       // |Q|
  size_t suffix_size = 0;        // queries at or after τ
  size_t replayed = 0;           // dependent queries actually replayed
  size_t planned_replay = 0;     // plan size before any Hash-jumper cutoff
  size_t suppressed = 0;         // entries skipped by ReplayRules (§6)
  size_t skipped = 0;            // pruned by dependency analysis
  size_t mutated_tables = 0;
  size_t consulted_tables = 0;
  bool schema_rebuild = false;  // built by re-executing the whole log

  bool hash_jump = false;        // Hash-jumper early termination fired
  uint64_t hash_jump_index = 0;  // commit index of the hash-hit
  bool hash_hit_verified = false;  // literal comparison ran and passed

  /// Longest chain of conflicting queries in the replay DAG: the number
  /// of round trips a replay overlapping independent chains cannot hide.
  /// Equals the slot count unless Options::parallel is set, and always on
  /// the naive strategy, which re-executes serially with no overlap.
  size_t critical_path = 0;

  uint64_t virtual_rtt_micros = 0;  // simulated client<->server RTT charged
  size_t temp_db_bytes = 0;         // temporary database footprint
  int workers = 1;  // always 1: slots replay inline on the calling thread

  /// Merged point-in-time view of every process metric, collected as
  /// Execute() returns, after this what-if's phases and verdicts were
  /// recorded: the uv.replay.phase.*_us histograms, staging/fault-in
  /// counters, VM plan-cache and tree-fallback counters, Hash-jumper probe
  /// outcomes and verdict counters (DESIGN.md §8). Process-wide: it also
  /// holds every earlier and concurrent operation's samples.
  obs::Snapshot obs;

  /// Decision-provenance report (DESIGN.md §13): the phase wall/CPU
  /// breakdown (the what-if's only timing; see WhatIfReport::WallMicros),
  /// staging/VM/lifecycle activity, verdict totals — and, at
  /// Options::explain == kFull, one TxnExplain per suffix transaction.
  obs::WhatIfReport report;
};

/// Executes the rollback & replay protocol of §4.4 over one history view
/// (HistorySnapshot), up to its entry count, against the database it
/// describes — staged from and, on publish, adopted back into:
///  1) build the pruned replay plan from the view's analysis,
///  2) stage a temporary database and roll back mutated+consulted tables
///     to τ-1 (a plan the journals cannot stage — DDL, or a commit behind
///     a checkpoint's trim horizon — re-executes the history naively),
///  3) replay dependent queries inline in commit order, charging virtual
///     RTT for the conflict DAG's critical path when Options::parallel,
///  4) Hash-jumper (§4.5): early-stop when the replayed state provably
///     reconverges with the original timeline (the view's logged digests),
///  5) adopt mutated tables back into the live database.
class RetroactiveEngine {
 public:
  struct Options {
    DependencyOptions deps;      // which pruning granularities are on
    ReplayMode mode = ReplayMode::kSelective;
    /// Charge virtual RTT for the conflict DAG's critical path only, as a
    /// replay overlapping independent chains would (§4.4). Slots always
    /// execute serially; false charges one round trip per executed slot.
    bool parallel = true;
    bool hash_jumper = false;
    /// §4.5: on a hash-hit, additionally compare the replayed tables'
    /// literal contents against the original timeline before jumping
    /// (guards against the 2^-256 collision case).
    bool verify_hash_hits = false;
    /// Per-query virtual round-trip cost charged during replay (the
    /// DBMS-client RTT the T-version saves; see DESIGN.md).
    uint64_t rtt_micros_per_query = 0;
    /// Human-decision rules applied to replayed application transactions
    /// (§6); parsed once at Execute() start.
    std::vector<ReplayRule> rules;
    /// When set, held *shared* while snapshotting the live database (stage
    /// clone, fault-ins through the read fallback, literal hash-hit
    /// verification) and *exclusive* while adopting mutated tables back
    /// (§4.4 step 3 lock), so regular traffic and concurrent analyses
    /// proceed during the replay itself and only the one-step swap
    /// excludes them.
    std::shared_mutex* db_mutex = nullptr;
    /// false = analyze-only (MVCC what-if, DESIGN.md §14): the engine
    /// computes the alternate universe into last_temp_db() but never writes
    /// the commit marker, never adopts tables or catalog back, and never
    /// touches the live database's counters. Many analyze-only executions
    /// may run concurrently over one shared immutable snapshot.
    bool publish = true;
    /// Durable write-ahead log participating in the atomic what-if commit
    /// protocol (DESIGN.md §11): after a clean replay and before the first
    /// live-database mutation, Execute() appends a fsynced commit marker,
    /// so crash recovery lands in the pre- or post-what-if state and
    /// never between. Null = no durability (in-memory only, the default).
    sql::Wal* wal = nullptr;
    /// Cooperative cancellation/deadline for the whole operation, polled
    /// before every slot and at phase boundaries; Execute() returns
    /// kCancelled / kDeadlineExceeded and the live database is left
    /// untouched (adoption never starts).
    const CancelToken* cancel = nullptr;
    /// Bounded retry for kRetryable slot failures (transient injected
    /// faults). Default: no retries.
    RetryPolicy retry;
    /// How much decision provenance Execute() assembles into
    /// ReplayStats::report. kSummary (default) records phase timings,
    /// verdict totals and layer counters; kFull adds one TxnExplain per
    /// suffix transaction.
    obs::ExplainLevel explain = obs::ExplainLevel::kSummary;
    /// Log indices forced into the replay plan regardless of the
    /// dependency analysis (their tables are staged and rolled back like
    /// ordinary members). Ground-truth knob for `fuzz_whatif
    /// --check-explain`: re-running a soundly pruned transaction must
    /// reproduce the very same final state.
    std::vector<uint64_t> forced_replay;
    /// Recovery path: the retroactive statement replays this recorded
    /// nondeterminism instead of generating fresh values, reproducing the
    /// exact universe the original what-if committed (sqldb/wal marker).
    const sql::NondetRecord* new_stmt_nondet = nullptr;
    /// The live query log to rewrite to the alternate history inside the
    /// publish critical section (DESIGN.md §14): a change swaps the target
    /// entry's statement and nondeterminism record in place, an add/remove
    /// inserts or erases it and renumbers the suffix, and every suffix
    /// entry's logged table hashes and captured variables are dropped
    /// (they describe the dead universe). Without the rewrite every later
    /// log-derived replay — a full-naive analyze, the suffix of a second
    /// publish, recovery's marker replay — reconstructs the pre-publish
    /// history while selective staging starts from the published live
    /// database, and the two universes silently diverge (found by the
    /// multi-client wire gate; see DESIGN.md §16). nullptr = publish
    /// without rewriting, for self-contained oracle universes that are
    /// compared once and discarded. Also the optimistic conflict check: if
    /// its epoch moved from the view's by publish time, a writer committed
    /// mid-replay, and Execute() returns kAborted without adopting.
    sql::QueryLog* rewrite_log = nullptr;
    /// Invoked inside the publish critical section, after the adoption
    /// swap and the history rewrite, with the exclusive db_mutex still
    /// held. The facade hangs its cache maintenance here (analysis
    /// truncation, hash-log re-baselining): doing it after Execute()
    /// returns would open a window where a concurrent snapshot or second
    /// publish reads stale per-entry analysis against the rewritten log.
    std::function<void(const RetroOp&)> on_published;
  };

  /// Replays one log entry against `db` at `commit_index`. The default
  /// executor runs entry.stmt directly (transpiled/T modes); the facade
  /// installs an interpreter-backed executor for B/D modes.
  using EntryExecutor = std::function<Status(
      sql::Database* db, const sql::LogEntry& entry, uint64_t commit_index)>;

  RetroactiveEngine(sql::Database* db,
                    std::shared_ptr<const HistorySnapshot> history,
                    Options options);

  void set_entry_executor(EntryExecutor executor) {
    entry_executor_ = std::move(executor);
  }

  /// Runs the retroactive operation. All but ReplayMode::kFullNaive need
  /// the view's analysis; an add/change or §6 rules also its analyzer.
  Result<ReplayStats> Execute(const RetroOp& op);

  /// The temporary database of the last Execute() call (tests inspect the
  /// alternate universe even after a hash-jump).
  const sql::Database* last_temp_db() const { return temp_db_.get(); }

  /// Nondeterminism the retroactive statement generated during the last
  /// Execute() (empty for kRemove). Persisted in the WAL commit marker so
  /// recovery re-derives a bit-identical universe.
  const sql::NondetRecord& new_stmt_nondet() const {
    return captured_new_nondet_;
  }

 private:
  struct Slot {
    bool is_new = false;
    uint64_t log_index = 0;  // original entry (when !is_new)
  };

  /// `apply_rules` is false while the naive strategy reconstructs the known
  /// prefix: §6 human-decision rules act on the what-if suffix only — the
  /// prefix is settled history, not an alternate universe.
  Status ExecuteSlot(sql::Database* db, const Slot& slot, const RetroOp& op,
                     uint64_t commit_index, bool apply_rules = true);

  /// The what-if's report and its only clock, shared by both strategies
  /// (replay.cc).
  class ReportRecorder;

  /// The naive strategy (ReplayMode::kFullNaive, kAuto after the plan was
  /// abandoned, or a plan the journals cannot stage): re-execute the whole
  /// rewritten history on a fresh database and adopt everything back.
  /// Fills `stats` on top of what the caller already recorded there
  /// (history/suffix sizes, a partial plan phase).
  Status ExecuteFullNaive(const RetroOp& op, uint64_t horizon,
                          ReportRecorder* rec, ReplayStats* stats);

  /// True when staging `plan` by journal rollback would have to undo the
  /// target or a member older than a mutated table's checkpoint trim
  /// horizon (§5 rollback option (iii)).
  bool UndoesTrimmedCommit(const RetroOp& op, const ReplayPlan& plan) const;

  /// The view's committed entry at 1-based `index`.
  const sql::LogEntry& EntryAt(uint64_t index) const {
    return *(*history_->entries)[index - 1];
  }

  sql::Database* db_;
  std::shared_ptr<const HistorySnapshot> history_;
  Options options_;
  EntryExecutor entry_executor_;
  std::unique_ptr<sql::Database> temp_db_;
  /// Publish prologue of both strategies (two-phase publish, §11): takes
  /// Options::db_mutex exclusively into `lock`, for the caller to hold
  /// through its swap; refuses with kAborted if Options::rewrite_log's
  /// epoch moved away from the view's; then writes the durable commit
  /// marker, the commit point.
  Status BeginPublish(const RetroOp& op,
                      std::unique_lock<std::shared_mutex>* lock);

  /// In-place rewrite of Options::rewrite_log to the alternate history a
  /// successful publish just made live. No-op when rewrite_log is null.
  /// Caller holds the publish critical section.
  void RewritePublishedLog(const RetroOp& op);

  /// (function, parsed when-condition) pairs from Options::rules.
  std::vector<std::pair<std::string, sql::StatementPtr>> parsed_rules_;
  size_t suppressed_ = 0;
  sql::NondetRecord captured_new_nondet_;
};

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_REPLAY_H_
