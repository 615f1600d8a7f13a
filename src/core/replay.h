#ifndef ULTRAVERSE_CORE_REPLAY_H_
#define ULTRAVERSE_CORE_REPLAY_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dep_graph.h"
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

class HashTimeline;  // original-timeline table hashes (replay.cc)

/// Shared, epoch-keyed cache of the Hash-jumper timeline (DESIGN.md §14).
/// The facade owns one and passes it to every engine it builds: rebuilt
/// only when the history *epoch* advances — never keyed by log size, which
/// an equal-length in-place history rewrite leaves unchanged.
struct TimelineCache {
  std::mutex mu;
  uint64_t epoch = 0;
  std::shared_ptr<const HashTimeline> timeline;
};

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
  bool schema_rebuild = false;

  bool hash_jump = false;        // Hash-jumper early termination fired
  uint64_t hash_jump_index = 0;  // commit index of the hash-hit
  bool hash_hit_verified = false;  // literal comparison ran and passed

  /// Longest chain of conflicting queries in the replay DAG: the number
  /// of round trips a replay overlapping independent chains cannot hide.
  /// Equals the slot count unless Options::parallel is set.
  size_t critical_path = 0;

  double analysis_seconds = 0;   // dependency-plan computation
  double rollback_seconds = 0;
  double replay_seconds = 0;
  double total_seconds = 0;
  uint64_t virtual_rtt_micros = 0;  // simulated client<->server RTT charged
  size_t temp_db_bytes = 0;         // temporary database footprint
  int workers = 1;  // always 1: slots replay inline on the calling thread

  /// Merged point-in-time view of every process metric, captured at the end
  /// of Execute(). Includes the per-phase latency histograms
  /// (replay.phase.*_us), staging/fault-in counters, VM plan-cache and
  /// tree-fallback counters and Hash-jumper probe outcomes — see DESIGN.md
  /// "Observability".
  obs::Snapshot obs;

  /// Decision-provenance report (DESIGN.md §13): phase wall/CPU breakdown,
  /// staging/VM/lifecycle activity, verdict totals — and, at
  /// Options::explain == kFull, one TxnExplain per suffix transaction.
  obs::WhatIfReport report;
};

/// Executes the rollback & replay protocol of §4.4 against a Database +
/// QueryLog pair:
///  1) build the pruned replay plan from the dependency analysis,
///  2) stage a temporary database and roll back mutated+consulted tables
///     to τ-1 (or rebuild from scratch when the plan replays DDL),
///  3) replay dependent queries inline in commit order, charging virtual
///     RTT for the conflict DAG's critical path when Options::parallel,
///  4) Hash-jumper (§4.5): early-stop when the replayed state provably
///     reconverges with the original timeline,
///  5) adopt mutated tables back into the live database.
class RetroactiveEngine {
 public:
  struct Options {
    DependencyOptions deps;      // which pruning granularities are on
    ReplayMode mode = ReplayMode::kSelective;
    /// Forces the rebuild-from-log staging path even when journal rollback
    /// could stage the replay (oracle mode pairs exercise both paths).
    bool force_rebuild = false;
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
    /// When nonzero, the replay horizon is pinned to this history length
    /// instead of the live log's current size — the what-if runs against
    /// the prefix frozen at snapshot time while writers keep appending.
    uint64_t horizon_override = 0;
    /// Entry pointers for log indices [1, horizon_override], captured under
    /// the commit lock at snapshot time. When set, the engine reads history
    /// exclusively through them: concurrent appends mutate the deque's
    /// internals, so even bounded-index reads of the live log would race.
    const std::vector<const sql::LogEntry*>* pinned_entries = nullptr;
    /// History epoch the snapshot (pinned_entries / the staged base) was
    /// taken at. Two uses: the Hash-jumper timeline cache key, and — in
    /// publish mode — optimistic conflict detection: if the live epoch has
    /// advanced past this by publish time, a writer committed mid-replay
    /// and the replayed universe no longer extends the live history, so
    /// Execute() returns kAborted without adopting anything.
    std::optional<uint64_t> snapshot_epoch;
    /// Shared Hash-jumper timeline cache (facade-owned); nullptr = the
    /// engine keeps a private one for its own lifetime.
    TimelineCache* timeline_cache = nullptr;
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
    /// suffix transaction; kOff records nothing (bench ablation).
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
    /// compared once and discarded.
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

  RetroactiveEngine(sql::Database* db, const sql::QueryLog* log,
                    Options options);
  ~RetroactiveEngine();

  void set_entry_executor(EntryExecutor executor) {
    entry_executor_ = std::move(executor);
  }

  /// Runs the retroactive operation. `analysis[i]` must describe log entry
  /// i+1; `analyzer` supplies R/W analysis for the op's new statement.
  Result<ReplayStats> Execute(const RetroOp& op,
                              const std::vector<QueryRW>& analysis,
                              QueryAnalyzer* analyzer);

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

  /// `apply_rules` is false while reconstructing the known prefix (rebuild
  /// and full-naive paths): §6 human-decision rules act on the what-if
  /// suffix only — the prefix is settled history, not an alternate universe.
  Status ExecuteSlot(sql::Database* db, const Slot& slot, const RetroOp& op,
                     uint64_t commit_index, bool apply_rules = true);

  /// ReplayMode::kFullNaive: re-execute the whole rewritten history on a
  /// fresh database and adopt everything back.
  Result<ReplayStats> ExecuteFullNaive(const RetroOp& op, uint64_t horizon);

  /// Hash-jumper timeline over the query log, keyed by the history *epoch*
  /// (an equal-length in-place rewrite must invalidate it); consults and
  /// populates Options::timeline_cache when the facade shares one.
  const HashTimeline* EnsureTimeline();

  /// Committed entry at 1-based `index` — through the pinned snapshot
  /// pointers when Options::pinned_entries is set, else the live log.
  const sql::LogEntry& EntryAt(uint64_t index) const;

  /// End of the history this execution replays over: the pinned horizon in
  /// snapshot mode, the live log's last index otherwise.
  uint64_t HistoryEnd() const;

  sql::Database* db_;
  const sql::QueryLog* log_;
  Options options_;
  EntryExecutor entry_executor_;
  std::unique_ptr<sql::Database> temp_db_;
  std::shared_ptr<const HashTimeline> timeline_;
  uint64_t timeline_epoch_ = 0;
  /// Two-phase publish (§11): durable commit marker first, then the
  /// one-step swap of staged tables into the live database.
  Status PublishCommitMarker(const RetroOp& op);

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
