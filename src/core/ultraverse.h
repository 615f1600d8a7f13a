#ifndef ULTRAVERSE_CORE_ULTRAVERSE_H_
#define ULTRAVERSE_CORE_ULTRAVERSE_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "applang/interpreter.h"
#include "core/replay.h"
#include "core/rw_sets.h"
#include "sqldb/database.h"
#include "sqldb/query_log.h"
#include "symexec/dse.h"
#include "transpiler/transpiler.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace ultraverse::core {

/// The four evaluated system configurations (§5):
///   kB  — baseline: original application replay, serial, no pruning.
///   kT  — transpiled procedures replayed serially, no pruning.
///   kD  — original application replay + dependency analysis + parallel.
///   kTD — transpiled procedures + dependency analysis + parallel.
/// "Parallel" is the critical-path RTT model: slots execute serially and
/// only the conflict DAG's longest chain is charged round trips.
enum class SystemMode { kB, kT, kD, kTD };

const char* SystemModeName(SystemMode mode);

/// Immutable MVCC snapshot of one history epoch (DESIGN.md §14): the full
/// CoW-cloned database state at the snapshot horizon, pinned pointers to
/// every committed entry up to it, the canonicalized per-entry analysis,
/// the static table footprints, and a frozen copy of the analyzer. Built
/// under the commit lock, then shared read-only by any number of
/// concurrent what-if analyses while regular traffic keeps committing.
struct HistorySnapshot {
  uint64_t epoch = 0;    // history epoch this snapshot pins
  uint64_t horizon = 0;  // committed entries covered (log prefix length)
  std::shared_ptr<const sql::Database> db;
  /// Owned copies of the pinned prefix. A what-if publish rewrites live
  /// log entries *in place* (and an add/remove publish inserts or erases
  /// mid-deque, which invalidates every reference into it), so pointers
  /// into the live deque would race with lock-free in-flight analyses.
  /// The snapshot owns its history instead; `entries` points into this.
  std::shared_ptr<const std::deque<sql::LogEntry>> entry_storage;
  std::shared_ptr<const std::vector<const sql::LogEntry*>> entries;
  std::shared_ptr<const std::vector<QueryRW>> analysis;
  std::shared_ptr<const std::vector<TableFootprint>> footprints;
  std::shared_ptr<const QueryAnalyzer> analyzer;
};

/// Per-request execution context (session-scoped robustness knobs). Every
/// what-if entry point takes one: a server session owns a CancelToken +
/// RetryPolicy per request and passes them here, so deadlines and retry
/// behavior are request-scoped rather than process-global. The no-context
/// overloads fall back to the facade-wide Options::whatif_* defaults
/// (embedded single-session use).
struct RequestContext {
  /// Cancellation/deadline token observed at every replay phase boundary
  /// and slot. Nullable = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Bounded retry for transient replay faults. kAborted publish conflicts
  /// are retried only when retry.retry_aborted is set AND the retry loops
  /// around the whole WhatIf call (re-snapshotting) — never inside it.
  RetryPolicy retry;
};

/// Result of an analyze-only what-if (no publish): the replay statistics
/// plus a fingerprint of the alternate-universe state, tagged with the
/// snapshot it was computed against.
struct WhatIfAnalysis {
  ReplayStats stats;
  /// sha256 over the alternate universe's sorted table contents — same
  /// format as Ultraverse::StateFingerprint(), so an analyze-only run is
  /// directly comparable with a published one or with a full-naive oracle.
  std::string fingerprint;
  uint64_t epoch = 0;
  uint64_t horizon = 0;
  bool cache_hit = false;  // served from the (epoch, op) result cache
};

/// Top-level framework facade: owns the database, the committed-query log,
/// the transpiled application, the analyzer, and the retroactive engine.
///
/// Regular operation: RunTransaction()/ExecuteSql() serve traffic against
/// the live database while logging one entry per application-level
/// transaction (the augmented-code protocol of Figure 3).
/// What-if analysis: WhatIf() executes a retroactive operation under any of
/// the four system configurations.
class Ultraverse {
 public:
  struct Options {
    /// Virtual client<->server round-trip cost (see VirtualClock).
    uint64_t rtt_micros = 1000;
    /// Ignored: replay runs its slots inline on the calling thread and
    /// models overlap through the critical-path RTT charge. Kept only so
    /// existing callers still compile; removing it is open work.
    int replay_threads = 8;
    bool hash_jumper = false;
    /// Literal table comparison on hash-hits (§4.5).
    bool verify_hash_hits = false;
    /// Maintain R/W dependency logs at commit time (the asynchronous
    /// logger whose overhead Table 7(c) measures). Off = compute lazily at
    /// what-if time.
    bool eager_analysis = false;
    /// Log per-table hashes at commit (needed by Hash-jumper).
    bool eager_hash_log = false;
    uint64_t rng_seed = 42;

    /// Durable write-ahead query log (DESIGN.md §11): every committed
    /// entry appends to this file, and WhatIf() publishes its commit
    /// marker through it (the atomic two-phase what-if publish). Empty =
    /// in-memory only. Restarting over an existing file APPENDS; recover
    /// first (fault::RecoverInto on a fresh facade's db()/log(), then
    /// AttachWal() — the order matters: recovery truncates a torn tail,
    /// and the append offset must be computed after that truncation).
    /// UvServer does exactly this when ServerOptions::recover_wal is set.
    std::string wal_path;
    /// Group commit: fsync every Nth entry (1 = each, 0 = markers only).
    uint64_t wal_fsync_every_n = 1;

    /// Bounded retry for transient (kUnavailable) replay faults during
    /// WhatIf(). Default: no retries.
    RetryPolicy whatif_retry;
    /// Cancellation/deadline token observed by WhatIf() replays; workers
    /// drain gracefully and the live database stays untouched. Nullable.
    const CancelToken* whatif_cancel = nullptr;

    /// Execution engine for the live database (clones used by replay
    /// inherit it). Unset = the process default (sql::DefaultExecEngine).
    std::optional<sql::ExecEngine> exec_engine;

    /// Decision-provenance level for WhatIf() (DESIGN.md §13): kSummary
    /// records phase timings + verdict totals into ReplayStats::report;
    /// kFull adds one TxnExplain per suffix transaction; kOff disables
    /// report assembly entirely (bench ablation).
    obs::ExplainLevel explain = obs::ExplainLevel::kSummary;
    /// Log indices forced into every replay plan (ground-truth knob for
    /// `fuzz_whatif --check-explain`; see RetroactiveEngine::Options).
    std::vector<uint64_t> forced_replay;
  };

  Ultraverse() : Ultraverse(Options()) {}
  explicit Ultraverse(Options options);
  ~Ultraverse();

  sql::Database* db() { return &db_; }
  sql::QueryLog* log() { return &log_; }
  /// Durable WAL when Options::wal_path is set; nullptr otherwise. Null
  /// after a failed open — check wal_status().
  sql::Wal* wal() { return wal_.get(); }
  const Status& wal_status() const { return wal_status_; }
  /// Opens a WAL for append on a facade constructed without one — the
  /// second half of the recover-then-attach restart sequence (see the
  /// Options::wal_path comment). Fails if a WAL is already attached.
  Status AttachWal(const std::string& path);
  QueryAnalyzer* analyzer() { return &analyzer_; }
  VirtualClock* clock() { return &clock_; }
  const app::AppProgram* program() const { return &program_; }

  // --- Setup ---------------------------------------------------------------

  /// Parses the UvScript application, runs DSE + transpilation on every
  /// function (§3), installs the transpiled procedures into the database as
  /// committed DDL, and keeps the augmented program for B/D execution.
  Status LoadApplication(const std::string& source);
  Status LoadApplication(const std::string& source,
                         sym::DseEngine::Options dse_options);

  /// Seconds spent in DSE + transpilation by the last LoadApplication.
  double transpile_seconds() const { return transpile_seconds_; }

  const transpiler::TranspiledTransaction* FindTranspiled(
      const std::string& fn) const;

  /// Declares row-identifier columns (§4.3 / Appendix D).
  void ConfigureRi(const std::string& table, const std::string& ri_column,
                   std::vector<std::string> aliases = {});

  // --- Regular operation ----------------------------------------------------

  /// Raw SQL client traffic: executes + logs one entry.
  Result<sql::ExecResult> ExecuteSql(const std::string& sql_text);

  /// Runs one application-level transaction. kB/kD execute the (augmented)
  /// application through the interpreter, issuing its SQL statement by
  /// statement (N round trips); kT/kTD execute the transpiled procedure
  /// (1 round trip). Both log the equivalent CALL entry.
  Result<app::AppValue> RunTransaction(const std::string& fn,
                                       std::vector<app::AppValue> args,
                                       SystemMode mode);

  // --- Analysis --------------------------------------------------------------

  /// Ensures per-entry R/W analysis covers the whole log; returns the
  /// canonicalized analysis (entry i+1 -> element i).
  Result<const std::vector<QueryRW>*> EnsureAnalysis();

  /// Ultraverse's additional dependency-log footprint (Table 7(b)).
  size_t UltraverseLogBytes();

  // --- What-if ---------------------------------------------------------------

  /// Executes a retroactive operation under the given system configuration
  /// and updates the live database to the alternate-universe state.
  /// `rules` optionally simulate interactive human decisions during the
  /// replay (§6): matching application transactions are suppressed while
  /// their condition holds in the alternate universe. Concurrency-safe:
  /// the replay runs against a pinned snapshot of the history while
  /// regular traffic keeps committing; if any commit lands before the
  /// publish point the call returns kAborted (first committer wins) and
  /// the live database stays untouched — re-invoke to retry against the
  /// extended history.
  Result<ReplayStats> WhatIf(const RetroOp& op, SystemMode mode,
                             std::vector<ReplayRule> rules = {});
  /// Session-scoped variant: the request's own cancel token and retry
  /// policy override the facade-wide Options::whatif_* defaults.
  Result<ReplayStats> WhatIf(const RetroOp& op, SystemMode mode,
                             std::vector<ReplayRule> rules,
                             const RequestContext& ctx);

  // --- Concurrent analyze-only what-ifs (MVCC, DESIGN.md §14) ---------------

  /// Monotone history epoch: advances on every commit and every published
  /// what-if. Two equal epochs imply identical history AND live state, so
  /// snapshots, hash timelines and what-if results are keyed on it.
  uint64_t history_epoch() const { return log_.epoch(); }

  /// Returns the shared immutable snapshot of the current history epoch,
  /// building it (full CoW clone + analysis catch-up) only when the epoch
  /// advanced since the last call. Any number of threads may analyze
  /// against the returned snapshot concurrently; writers are blocked only
  /// while the snapshot itself is built.
  Result<std::shared_ptr<const HistorySnapshot>> SnapshotHistory();

  /// Analyze-only what-if against an explicit snapshot: computes the
  /// alternate universe and its fingerprint WITHOUT publishing — the live
  /// database, log and WAL are not touched. Safe to call from many threads
  /// with the same snapshot simultaneously. `full_naive` selects the
  /// ground-truth reference path (differential oracle, DESIGN.md §9).
  Result<WhatIfAnalysis> WhatIfAnalyzeAt(const HistorySnapshot& snap,
                                         const RetroOp& op, SystemMode mode,
                                         bool full_naive = false);
  /// Session-scoped variant (see RequestContext).
  Result<WhatIfAnalysis> WhatIfAnalyzeAt(const HistorySnapshot& snap,
                                         const RetroOp& op, SystemMode mode,
                                         bool full_naive,
                                         const RequestContext& ctx);

  /// Convenience: snapshot the current epoch and analyze, memoizing the
  /// result keyed by (history epoch, canonicalized op, mode). A repeated
  /// question against an unchanged history is answered from the cache
  /// (verdict kResultCacheHit, metric uv.whatif.cache.hit); any commit
  /// invalidates by advancing the epoch.
  Result<WhatIfAnalysis> WhatIfAnalyze(const RetroOp& op, SystemMode mode);
  /// Session-scoped variant (see RequestContext). Cache hits still honor
  /// the context's deadline check before returning.
  Result<WhatIfAnalysis> WhatIfAnalyze(const RetroOp& op, SystemMode mode,
                                       const RequestContext& ctx);

  /// Convenience: builds a RetroOp from SQL text ("" = remove).
  Result<RetroOp> MakeOp(RetroOp::Kind kind, uint64_t index,
                         const std::string& new_sql);

  /// Sets a client-side environment value (§3.3): the next transactions'
  /// dom_input("name") / user_agent() calls observe it, and it is recorded
  /// for faithful replay. Keys use the client-symbol names ("dom_<name>",
  /// "client_user_agent").
  void SetClientEnv(const std::string& key, sql::Value value) {
    client_env_[key] = std::move(value);
  }

  /// Tags the current history position as a named what-if scenario branch
  /// (§6 "Managing Many what-if Scenarios").
  void TagScenario(const std::string& name);
  const std::map<std::string, uint64_t>& scenario_tags() const {
    return scenario_tags_;
  }

  /// Checkpoint (§5 rollback option (iii)): trims undo journals before the
  /// current history position. Bounds journal memory; what-ifs targeting
  /// older commits transparently rebuild the prefix from the log.
  void Checkpoint();

  /// Serializes the full database state (all tables, sorted rows) — used
  /// by tests and benches to compare universes across configurations.
  std::string StateFingerprint() const;

 private:
  class RegularBridge;
  class ReplayBridge;

  /// Appends the entry to the in-memory log and the WAL. Returns the WAL
  /// append seq the caller must WaitDurable() on once it has released
  /// commit_mu_ (0 = durability not owed yet: deferred group commit, or
  /// no WAL). Moving the fsync wait off the commit critical section is
  /// what lets concurrent committers share one group fsync.
  Result<uint64_t> CommitEntry(sql::LogEntry entry);
  Status InterpreterReplayExecutor(sql::Database* target,
                                   const sql::LogEntry& entry,
                                   uint64_t commit_index,
                                   std::atomic<uint64_t>* rtt_counter);
  /// Catch-up of raw + canonicalized analysis and footprints to the log
  /// tail. Caller holds commit_mu_ exclusively. Incremental: entries
  /// already canonicalized are reused verbatim unless the analyzer's
  /// merged-RI generation advanced (then canonical representatives may
  /// have changed and everything re-canonicalizes).
  Status EnsureAnalysisLocked();

  /// Publish-time cache maintenance, invoked by the engine inside the
  /// publish critical section (commit_mu_ held exclusively) right after it
  /// rewrote log_ to the alternate history: drops per-entry analysis from
  /// the rewrite point on (the old statements' R/W sets would poison
  /// future dependency planning) and re-baselines the eager hash log
  /// against the just-adopted live tables.
  void OnPublishedLocked(const RetroOp& op);

  Options options_;
  sql::Database db_;
  sql::QueryLog log_;
  std::unique_ptr<sql::Wal> wal_;
  Status wal_status_;
  QueryAnalyzer analyzer_;
  VirtualClock clock_;
  Rng rng_;
  int64_t bb_clock_ = 0;

  app::AppProgram program_;
  std::map<std::string, transpiler::TranspiledTransaction> transpiled_;
  double transpile_seconds_ = 0;

  // Raw (uncanonicalized) per-entry analysis, maintained incrementally,
  // plus the aligned static table footprints fed to the dependency
  // planner's pre-filter (exact dynamic table sets satisfy the ⊇
  // contract of DependencyOptions::static_footprints).
  std::vector<QueryRW> raw_analysis_;
  std::vector<TableFootprint> footprints_;
  // Canonicalized analysis: extended append-only while the analyzer's
  // merged-RI generation holds, rebuilt wholesale when a merge lands.
  std::vector<QueryRW> canonical_analysis_;
  uint64_t canonical_merge_gen_ = 0;

  // Last logged hash per table (eager hash logging).
  std::map<std::string, Digest256> last_hash_;

  // Client-side environment for dom_input()/user_agent() (§3.3).
  std::map<std::string, sql::Value> client_env_;

  std::map<std::string, uint64_t> scenario_tags_;

  /// Exclusive: commits, snapshot builds, the what-if adoption swap.
  /// Shared: staging clones, fault-ins, fingerprints — so concurrent
  /// analyses never serialize on each other. Mutable so const readers
  /// (StateFingerprint) can take the shared side.
  mutable std::shared_mutex commit_mu_;

  // --- MVCC what-if state (DESIGN.md §14) ---------------------------------
  /// Latest epoch's snapshot; replaced when the epoch advances. In-flight
  /// analyses keep older snapshots alive through their shared_ptrs.
  std::shared_ptr<const HistorySnapshot> snapshot_cache_;
  /// Hash-jumper timeline shared across publishing what-ifs, epoch-keyed.
  TimelineCache timeline_cache_;
  /// (epoch, canonicalized op, mode) -> analyze-only result. Guarded by
  /// result_mu_ (a leaf lock: never held while acquiring commit_mu_).
  std::mutex result_mu_;
  uint64_t result_cache_epoch_ = 0;
  std::map<std::string, WhatIfAnalysis> result_cache_;
};

/// Serializes a database's full state (all tables, sorted rows) in exactly
/// the Ultraverse::StateFingerprint() format — for recovery-side oracles
/// (the network differential gate) that re-derive state from a WAL without
/// constructing a facade.
std::string FingerprintDatabase(const sql::Database& db);

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_ULTRAVERSE_H_
