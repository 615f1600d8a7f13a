#include "core/ultraverse.h"

#include <algorithm>
#include <atomic>

#include "applang/app_parser.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqldb/parser.h"
#include "sqldb/wal/wal.h"
#include "util/sha256.h"
#include "util/stopwatch.h"

namespace ultraverse::core {

namespace {

using app::AppValue;

/// Converts an engine ExecResult to the application-level shape: SELECTs
/// become arrays of row objects, DML becomes the affected-row count.
AppValue ExecResultToApp(const sql::ExecResult& res, bool is_select) {
  if (!is_select) return AppValue::Number(double(res.affected));
  AppValue arr = AppValue::Array();
  for (const auto& row : res.rows) {
    AppValue obj = AppValue::Object();
    for (size_t i = 0; i < row.size() && i < res.column_names.size(); ++i) {
      (*obj.obj)[res.column_names[i]] = AppValue::FromSqlValue(row[i]);
    }
    arr.arr->push_back(std::move(obj));
  }
  return arr;
}

/// Blackbox-recording instrumentation used while serving a transaction with
/// the original application code (B/D regular operation): generates
/// nondeterministic API results and records them under the same symbol
/// names the DSE mints, so all four configurations replay identically.
class RecordingHooks : public app::InterpreterHooks {
 public:
  RecordingHooks(Rng* rng, int64_t* clock,
                 const std::map<std::string, sql::Value>* client_env)
      : rng_(rng), clock_(clock), client_env_(client_env) {}

  bool OnBuiltin(const std::string& name, const std::vector<AppValue>& args,
                 AppValue* result) override {
    (void)args;
    std::string sym = "bb_" + name + "_" + std::to_string(++counter_);
    if (name == "rand" || name == "random") {
      double v = rng_->UniformDouble();
      recorded_[sym] = sql::Value::Double(v);
      *result = AppValue::Number(v);
      return true;
    }
    if (name == "now" || name == "gettime") {
      double v = double(++(*clock_));
      recorded_[sym] = sql::Value::Double(v);
      *result = AppValue::Number(v);
      return true;
    }
    if (name == "http_send") {
      AppValue resp = AppValue::Object();
      (*resp.obj)["code"] = AppValue::Number(1);
      (*resp.obj)["error"] = AppValue::String("");
      for (const auto& [key, value] : *resp.obj) {
        recorded_[sym + "." + key] = value.ToSqlValue();
      }
      *result = std::move(resp);
      return true;
    }
    if (name == "dom_input" || name == "user_agent") {
      // Record under the stable client-symbol name the DSE also uses.
      std::string stable = name == "user_agent"
                               ? "client_user_agent"
                               : "dom_" + (args.empty() ? "" : args[0].ToStr());
      sql::Value v = sql::Value::String("");
      if (client_env_) {
        auto it = client_env_->find(stable);
        if (it != client_env_->end()) v = it->second;
      }
      recorded_[stable] = v;
      *result = AppValue::FromSqlValue(v);
      return true;
    }
    return false;
  }

  const std::map<std::string, sql::Value>& recorded() const {
    return recorded_;
  }

 private:
  Rng* rng_;
  int64_t* clock_;
  const std::map<std::string, sql::Value>* client_env_;
  int counter_ = 0;
  std::map<std::string, sql::Value> recorded_;
};

/// Replay counterpart: re-injects the recorded blackbox values (§4.4
/// "Replaying Non-determinism").
class ReplayHooks : public app::InterpreterHooks {
 public:
  explicit ReplayHooks(const std::map<std::string, sql::Value>* recorded)
      : recorded_(recorded) {}

  bool OnBuiltin(const std::string& name, const std::vector<AppValue>& args,
                 AppValue* result) override {
    (void)args;
    std::string sym = "bb_" + name + "_" + std::to_string(++counter_);
    if (name == "http_send") {
      AppValue resp = AppValue::Object();
      std::string prefix = sym + ".";
      for (const auto& [key, value] : *recorded_) {
        if (key.rfind(prefix, 0) == 0) {
          (*resp.obj)[key.substr(prefix.size())] =
              AppValue::FromSqlValue(value);
        }
      }
      if (resp.obj->empty()) {
        (*resp.obj)["code"] = AppValue::Number(1);
        (*resp.obj)["error"] = AppValue::String("");
      }
      *result = std::move(resp);
      return true;
    }
    if (name == "rand" || name == "random" || name == "now" ||
        name == "gettime") {
      auto it = recorded_->find(sym);
      *result = it != recorded_->end() ? AppValue::FromSqlValue(it->second)
                                       : AppValue::Number(0);
      return true;
    }
    if (name == "dom_input" || name == "user_agent") {
      std::string stable = name == "user_agent"
                               ? "client_user_agent"
                               : "dom_" + (args.empty() ? "" : args[0].ToStr());
      auto it = recorded_->find(stable);
      *result = it != recorded_->end() ? AppValue::FromSqlValue(it->second)
                                       : AppValue::String("");
      return true;
    }
    return false;
  }

 private:
  const std::map<std::string, sql::Value>* recorded_;
  int counter_ = 0;
};

}  // namespace

const char* SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kB: return "B";
    case SystemMode::kT: return "T";
    case SystemMode::kD: return "D";
    case SystemMode::kTD: return "T+D";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Bridges
// ---------------------------------------------------------------------------

/// Live-traffic SQL bridge: each SQL_exec from application code is one
/// client->server round trip against the live database.
class Ultraverse::RegularBridge : public app::SqlBridge {
 public:
  RegularBridge(sql::Database* db, sql::ExecContext* ctx,
                uint64_t commit_index, VirtualClock* clock)
      : db_(db), ctx_(ctx), commit_index_(commit_index), clock_(clock) {}

  Result<AppValue> ExecuteAppSql(const std::string& sql_text) override {
    clock_->ChargeRoundTrip();
    ++statements_;
    UV_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::Parser::ParseStatement(sql_text));
    UV_ASSIGN_OR_RETURN(sql::ExecResult res,
                        db_->Execute(*stmt, commit_index_, ctx_));
    return ExecResultToApp(res, stmt->kind == sql::StatementKind::kSelect);
  }

  int statements() const { return statements_; }

 private:
  sql::Database* db_;
  sql::ExecContext* ctx_;
  uint64_t commit_index_;
  VirtualClock* clock_;
  int statements_ = 0;
};

/// Replay-time bridge: executes against the temporary database, consuming
/// the entry's recorded SQL-level nondeterminism, and counts round trips
/// into the replay RTT accumulator.
class Ultraverse::ReplayBridge : public app::SqlBridge {
 public:
  ReplayBridge(sql::Database* db, sql::ExecContext* ctx, uint64_t commit_index,
               std::atomic<uint64_t>* rtt_counter, uint64_t rtt_micros)
      : db_(db),
        ctx_(ctx),
        commit_index_(commit_index),
        rtt_counter_(rtt_counter),
        rtt_micros_(rtt_micros) {}

  Result<AppValue> ExecuteAppSql(const std::string& sql_text) override {
    if (rtt_counter_) {
      rtt_counter_->fetch_add(rtt_micros_, std::memory_order_relaxed);
    }
    UV_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::Parser::ParseStatement(sql_text));
    UV_ASSIGN_OR_RETURN(sql::ExecResult res,
                        db_->Execute(*stmt, commit_index_, ctx_));
    return ExecResultToApp(res, stmt->kind == sql::StatementKind::kSelect);
  }

 private:
  sql::Database* db_;
  sql::ExecContext* ctx_;
  uint64_t commit_index_;
  std::atomic<uint64_t>* rtt_counter_;
  uint64_t rtt_micros_;
};

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

Ultraverse::Ultraverse(Options options)
    : options_(options), clock_(options.rtt_micros), rng_(options.rng_seed) {
  if (options_.exec_engine) db_.set_exec_engine(*options_.exec_engine);
  // Table digests exist only to be logged: without the eager hash log no
  // commit, undo or replay hashes a row.
  db_.SetTableHashing(options_.eager_hash_log);
  if (!options_.wal_path.empty()) {
    sql::WalOptions wal_options;
    wal_options.fsync_every_n = options_.wal_fsync_every_n;
    Result<std::unique_ptr<sql::Wal>> wal =
        sql::Wal::Open(options_.wal_path, wal_options);
    if (wal.ok()) {
      wal_ = std::move(wal).value();
    } else {
      // Surfaced through wal_status(): a constructor cannot return one,
      // and silently running without durability would be worse.
      wal_status_ = wal.status();
    }
  }
}

Ultraverse::~Ultraverse() = default;

Status Ultraverse::AttachWal(const std::string& path) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a WAL is already attached");
  }
  sql::WalOptions wal_options;
  wal_options.fsync_every_n = options_.wal_fsync_every_n;
  UV_ASSIGN_OR_RETURN(wal_, sql::Wal::Open(path, wal_options));
  options_.wal_path = path;
  wal_status_ = Status::OK();
  return Status::OK();
}

Status Ultraverse::LoadApplication(const std::string& source) {
  return LoadApplication(source, sym::DseEngine::Options());
}

Status Ultraverse::LoadApplication(const std::string& source,
                                   sym::DseEngine::Options dse_options) {
  obs::TraceSpan span("app.load");
  static obs::Histogram* const load_us =
      obs::Registry::Global().histogram("uv.app.load_us");
  obs::ScopedLatency latency(load_us);
  Stopwatch watch;
  UV_ASSIGN_OR_RETURN(app::AppProgram program, app::AppParser::Parse(source));
  // The instrumented application is executed by DSE function by function
  // (§3.2 Step 2), then each path tree is transpiled to a PROCEDURE.
  sym::DseEngine engine(&program, dse_options);
  std::vector<transpiler::TranspiledTransaction> transpiled;
  for (const auto& [name, fn] : program.functions) {
    (void)fn;
    UV_ASSIGN_OR_RETURN(sym::DseResult dse, engine.Explore(name));
    UV_ASSIGN_OR_RETURN(transpiler::TranspiledTransaction tt,
                        transpiler::Transpiler::Transpile(dse));
    transpiled.push_back(std::move(tt));
  }
  program_ = std::move(program);
  transpile_seconds_ = watch.ElapsedSeconds();

  // Install the procedures as committed DDL so DDL<->DML dependency rules
  // apply to them (_S.<procedure> read/write entries, §4.2).
  for (auto& tt : transpiled) {
    sql::LogEntry entry;
    entry.stmt = tt.create_procedure;
    entry.sql = tt.ToSqlText();
    sql::ExecResult unused;
    UV_ASSIGN_OR_RETURN(uint64_t seq,
                        ExecuteAndCommit(std::move(entry), &unused));
    if (seq != 0) UV_RETURN_NOT_OK(wal_->WaitDurable(seq));
    transpiled_[tt.function] = std::move(tt);
  }
  return Status::OK();
}

const transpiler::TranspiledTransaction* Ultraverse::FindTranspiled(
    const std::string& fn) const {
  auto it = transpiled_.find(fn);
  return it == transpiled_.end() ? nullptr : &it->second;
}

void Ultraverse::ConfigureRi(const std::string& table,
                             const std::string& ri_column,
                             std::vector<std::string> aliases) {
  analyzer_.ConfigureRi(table, ri_column, std::move(aliases));
}

Result<uint64_t> Ultraverse::CommitEntry(
    sql::LogEntry entry, std::map<std::string, int64_t> counters_before) {
  // Hash-jumper logging: per-table digests of everything this commit
  // changed (§4.5). Incremental hashes make this O(tables).
  if (options_.eager_hash_log) {
    for (const auto& name : db_.TableNames()) {
      const Digest256& h = db_.FindTable(name)->table_hash()->value();
      auto it = last_hash_.find(name);
      if (it == last_hash_.end() || !(it->second == h)) {
        entry.table_hashes[name] = h;
      }
    }
  }
  uint64_t durability_seq = 0;
  if (wal_) {
    // Durability before visibility-to-replay: the WAL gets the committed
    // entry (with its hash log) before it enters the in-memory log, so a
    // failed append leaves nothing to undo but the statement's own live
    // effects. The fsync wait happens in the caller AFTER commit_mu_
    // drops, so concurrent committers form one fsync group instead of
    // serializing their disk waits behind the lock.
    entry.index = log_.size() + 1;
    bool sync_due = false;
    Result<uint64_t> seq = wal_->AppendEntryAsync(entry, &sync_due);
    if (!seq.ok()) {
      db_.RollbackToIndex(log_.size());
      db_.RestoreAutoIncrement(std::move(counters_before));
      return seq.status();
    }
    if (sync_due) durability_seq = *seq;
  }
  for (const auto& [name, h] : entry.table_hashes) last_hash_[name] = h;
  log_.Append(std::move(entry));
  // Canonicalization waits for the next full catch-up: a merge learned here
  // would otherwise re-canonicalize the whole history inside this commit.
  if (options_.eager_analysis) UV_RETURN_NOT_OK(AnalyzeNewEntriesLocked());
  return durability_seq;
}

Result<uint64_t> Ultraverse::ExecuteAndCommit(sql::LogEntry entry,
                                             sql::ExecResult* out) {
  sql::ExecContext ctx;
  ctx.StartRecording(&entry.nondet);
  std::lock_guard<std::shared_mutex> g(commit_mu_);
  // The logical clock is plain state guarded by commit_mu_ — stamp under
  // the lock so concurrent committers serialize (timestamps then follow
  // commit order, which replay assumes anyway).
  entry.timestamp = db_.NextTimestamp();
  const uint64_t commit_index = log_.size() + 1;
  // A failed WAL append unapplies the statement, and row-level rollback
  // cannot undo DDL: keep a CoW savepoint (O(tables) page shares) to
  // return to instead. DDL nested in a CALL is not covered.
  std::unique_ptr<sql::Database> savepoint;
  if (wal_ && sql::IsDdl(entry.stmt->kind)) savepoint = db_.Clone();
  std::map<std::string, int64_t> counters;
  if (wal_) counters = db_.auto_increment_state();
  Result<sql::ExecResult> res = db_.Execute(*entry.stmt, commit_index, &ctx);
  if (!res.ok()) {
    db_.RollbackToIndex(commit_index - 1);
    return res.status();
  }
  *out = std::move(*res);
  Result<uint64_t> seq = CommitEntry(std::move(entry), std::move(counters));
  // Only a failure before the log append leaves the entry uncommitted.
  if (!seq.ok() && savepoint && log_.size() < commit_index) {
    db_.RestoreSavepoint(std::move(savepoint));
  }
  return seq;
}

Result<sql::ExecResult> Ultraverse::ExecuteSql(const std::string& sql_text) {
  UV_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                      sql::Parser::ParseStatement(sql_text));
  sql::LogEntry entry;
  entry.sql = sql_text;
  entry.stmt = stmt;
  clock_.ChargeRoundTrip();
  sql::ExecResult out;
  UV_ASSIGN_OR_RETURN(uint64_t durability_seq,
                      ExecuteAndCommit(std::move(entry), &out));
  // Group-commit durability wait outside the commit lock: a failed group
  // fsync reports here — to every committer in the group (see
  // Wal::WaitDurable), not just whichever one triggered the sync.
  if (durability_seq != 0) UV_RETURN_NOT_OK(wal_->WaitDurable(durability_seq));
  return out;
}

Result<AppValue> Ultraverse::RunTransaction(const std::string& fn,
                                            std::vector<AppValue> args,
                                            SystemMode mode) {
  const transpiler::TranspiledTransaction* tt = FindTranspiled(fn);
  if (!tt) return Status::NotFound("no transpiled transaction " + fn);

  sql::LogEntry entry;
  entry.app_txn = fn;
  for (const auto& a : args) entry.app_args.push_back(a.ToSqlValue());

  std::unique_lock<std::shared_mutex> g(commit_mu_);
  // Committed index and timestamp resolved under the lock: concurrent
  // committers would otherwise race to the same slot / logical tick.
  entry.timestamp = db_.NextTimestamp();
  uint64_t commit_index = log_.size() + 1;
  // For CommitEntry to restore if the WAL append fails.
  std::map<std::string, int64_t> counters;
  if (wal_) counters = db_.auto_increment_state();

  AppValue ret;
  bool use_app_code = mode == SystemMode::kB || mode == SystemMode::kD;
retry_with_app_code:
  if (use_app_code) {
    // Original (augmented) application code: N statements, N round trips.
    sql::ExecContext ctx;
    ctx.StartRecording(&entry.nondet);
    RegularBridge bridge(&db_, &ctx, commit_index, &clock_);
    RecordingHooks hooks(&rng_, &bb_clock_, &client_env_);
    app::Interpreter interp(&program_, &bridge, &hooks);
    for (const auto& [k, v] : client_env_) {
      interp.client_env[k] = AppValue::FromSqlValue(v);
    }
    Result<AppValue> r = interp.CallFunction(fn, std::move(args));
    if (!r.ok()) {
      db_.RollbackToIndex(commit_index - 1);
      return r.status();
    }
    ret = std::move(*r);
    entry.app_blackbox = hooks.recorded();
  } else {
    // Transpiled fast path: one CALL, one round trip. Blackbox parameters
    // are materialized up front (§3.3 option 2, simplified: the client
    // evaluates the native API and passes its value into the procedure).
    for (const auto& bb : tt->blackbox_params) {
      sql::Value v;
      if (bb.rfind("dom_", 0) == 0 || bb.rfind("client_", 0) == 0) {
        // Client-side symbols (§3.3): supplied per request through the
        // client environment; empty when the caller provided none.
        auto it = client_env_.find(bb);
        v = it != client_env_.end() ? it->second : sql::Value::String("");
      } else if (bb.find("rand") != std::string::npos) {
        v = sql::Value::Double(rng_.UniformDouble());
      } else if (bb.find("now") != std::string::npos ||
                 bb.find("gettime") != std::string::npos) {
        v = sql::Value::Int(++bb_clock_);
      } else if (bb.find("http_send") != std::string::npos) {
        size_t dot = bb.find('.');
        std::string field = dot == std::string::npos ? "" : bb.substr(dot + 1);
        if (field == "code") {
          v = sql::Value::Int(1);
        } else {
          v = sql::Value::String("");
        }
      }
      entry.app_blackbox[bb] = v;
    }
  }

  // Build the equivalent CALL entry (this is what the retroactive plugin
  // analyzes and what T/T+D replay executes).
  auto call = sql::Statement::Make(sql::StatementKind::kCall);
  call->call.procedure = tt->procedure_name;
  for (const auto& a : entry.app_args) {
    call->call.args.push_back(sql::Expr::MakeLiteral(a));
  }
  for (const auto& bb : tt->blackbox_params) {
    auto it = entry.app_blackbox.find(bb);
    call->call.args.push_back(sql::Expr::MakeLiteral(
        it != entry.app_blackbox.end() ? it->second : sql::Value::Null()));
  }
  entry.stmt = call;
  entry.sql = sql::ToSql(*call);

  if (!use_app_code) {
    clock_.ChargeRoundTrip();
    sql::ExecContext ctx;
    ctx.StartRecording(&entry.nondet);
    ctx.set_var_capture(&entry.captured_vars);
    Result<sql::ExecResult> r = db_.Execute(*call, commit_index, &ctx);
    if (!r.ok()) {
      db_.RollbackToIndex(commit_index - 1);
      if (r.status().code() == StatusCode::kSignal) {
        // Unexplored-path trap (§3.3): fall back to the original
        // application code for this invocation; a production deployment
        // would run delta-DSE here and patch the procedure.
        use_app_code = true;
        entry.app_blackbox.clear();
        entry.nondet = sql::NondetRecord{};
        args.clear();
        for (const auto& a : entry.app_args) {
          args.push_back(AppValue::FromSqlValue(a));
        }
        goto retry_with_app_code;
      }
      return r.status();
    }
  }

  UV_ASSIGN_OR_RETURN(uint64_t durability_seq,
                      CommitEntry(std::move(entry), std::move(counters)));
  g.unlock();
  // As in ExecuteSql: the group fsync wait runs off the commit lock.
  if (durability_seq != 0) UV_RETURN_NOT_OK(wal_->WaitDurable(durability_seq));
  return ret;
}

Status Ultraverse::AnalyzeNewEntriesLocked() {
  while (analysis_.size() < log_.size()) {
    UV_ASSIGN_OR_RETURN(QueryRW rw,
                        analyzer_.AnalyzeEntry(log_.at(analysis_.size() + 1)));
    footprints_.push_back(FootprintOf(rw));
    analysis_.push_back(std::move(rw));
  }
  return Status::OK();
}

Status Ultraverse::EnsureAnalysisLocked() {
  UV_RETURN_NOT_OK(AnalyzeNewEntriesLocked());
  const uint64_t gen = analyzer_.merge_generation();
  if (canonical_merge_gen_ != gen) {
    // A merged-RI union landed since the last canonicalization: the
    // representative of any already-canonical value may have changed.
    // Re-canonicalizing in place is exact (merge classes only grow, so
    // Find_new(Find_old(v)) = Find_new(v), and a region closed under the
    // old classes closes to the same set under the new ones).
    canonical_count_ = 0;
    canonical_merge_gen_ = gen;
    log_.BumpGeneration();
  }
  // Union-find unchanged: only the new tail needs work (incremental
  // maintenance, DESIGN.md §14).
  for (; canonical_count_ < analysis_.size(); ++canonical_count_) {
    analyzer_.CanonicalizeRowSets(&analysis_[canonical_count_]);
  }
  return Status::OK();
}

void Ultraverse::OnPublishedLocked(const RetroOp& op) {
  // Everything analyzed from the rewrite point on described statements
  // that no longer exist at those indices (a change swapped the target, an
  // add/remove shifted the suffix). Truncate; EnsureAnalysisLocked
  // re-derives the tail lazily from the rewritten entries. The analyzer's
  // union-find keeps merges learned from the dead suffix — that can only
  // widen row sets, which over-replays but never skips a dependency.
  log_.BumpGeneration();
  const size_t keep = std::min<size_t>(analysis_.size(), op.index - 1);
  analysis_.resize(keep);
  footprints_.resize(keep);
  canonical_count_ = std::min(canonical_count_, keep);
  // Eager hash log: the suffix digests were dropped by the rewrite.
  // Re-baseline on the final entry with the just-adopted live tables, so
  // timeline lookups at-or-past the horizon (and dedup of future commits)
  // compare against the published universe, not the dead one. Indices
  // between the rewrite point and the horizon have no logged digests —
  // probes there fall back to the settled prefix and read as misses.
  if (options_.eager_hash_log && log_.size() > 0) {
    sql::LogEntry& back = log_.mutable_entries().back();
    last_hash_.clear();
    for (const auto& name : db_.TableNames()) {
      const Digest256& h = db_.FindTable(name)->table_hash()->value();
      back.table_hashes[name] = h;
      last_hash_[name] = h;
    }
  }
}

Result<const std::vector<QueryRW>*> Ultraverse::EnsureAnalysis() {
  // Serialize against commits: the analyzer state and the analysis vector
  // evolve with the log, and WhatIf snapshots a consistent prefix.
  std::unique_lock<std::shared_mutex> g(commit_mu_);
  UV_RETURN_NOT_OK(EnsureAnalysisLocked());
  return &analysis_;
}

namespace {

/// The predecessor of a snapshot built with no valid one to extend.
const HistorySnapshot& EmptySnapshot() {
  static const HistorySnapshot* const empty = [] {
    auto* snap = new HistorySnapshot;
    snap->entries = std::make_shared<std::vector<const sql::LogEntry*>>();
    snap->analysis = std::make_shared<std::vector<QueryRW>>();
    snap->footprints = std::make_shared<std::vector<TableFootprint>>();
    return snap;
  }();
  return *empty;
}

/// `base`'s elements followed by `delta`'s, as one shared vector.
template <typename T>
std::shared_ptr<const std::vector<T>> Concat(const std::vector<T>& base,
                                             std::vector<T> delta) {
  auto out = std::make_shared<std::vector<T>>();
  out->reserve(base.size() + delta.size());
  out->insert(out->end(), base.begin(), base.end());
  out->insert(out->end(), std::make_move_iterator(delta.begin()),
              std::make_move_iterator(delta.end()));
  return out;
}

}  // namespace

Result<std::shared_ptr<const HistorySnapshot>> Ultraverse::SnapshotHistory() {
  {
    std::shared_lock<std::shared_mutex> rl(commit_mu_);
    if (snapshot_cache_ && snapshot_cache_->epoch == log_.epoch()) {
      return snapshot_cache_;
    }
  }
  static obs::Counter* const builds =
      obs::Registry::Global().counter("uv.whatif.snapshot.builds");
  static obs::Histogram* const build_us =
      obs::Registry::Global().histogram("uv.whatif.snapshot.build_us");
  static obs::Histogram* const lock_us =
      obs::Registry::Global().histogram("uv.whatif.snapshot.lock_us");
  obs::ScopedLatency latency(build_us);
  obs::TraceSpan span("whatif.snapshot");
  auto snap = std::make_shared<HistorySnapshot>();
  std::shared_ptr<const HistorySnapshot> pred;
  std::vector<sql::LogEntry> delta_entries;
  std::vector<QueryRW> delta_analysis;
  std::vector<TableFootprint> delta_footprints;
  uint64_t held_us = 0;
  {
    std::unique_lock<std::shared_mutex> wl(commit_mu_);
    // Another thread may have built it between the two locks.
    if (snapshot_cache_ && snapshot_cache_->epoch == log_.epoch()) {
      return snapshot_cache_;
    }
    const uint64_t locked_at = NowMicros();
    builds->Inc();
    UV_RETURN_NOT_OK(EnsureAnalysisLocked());
    // The cached snapshot is a prefix of this one unless something it
    // covers was rewritten in place since (the generation advanced); then
    // the build extends the empty snapshot, i.e. copies everything.
    if (snapshot_cache_ && snapshot_cache_->generation == log_.generation() &&
        snapshot_cache_->horizon <= log_.size()) {
      pred = snapshot_cache_;
    }
    const size_t from = pred ? pred->horizon : 0;
    obs::TraceSpan locked("whatif.snapshot.locked",
                          {{"horizon", log_.size()},
                           {"delta", log_.size() - from}});
    delta_entries.assign(log_.entries().begin() + from, log_.entries().end());
    delta_analysis.assign(analysis_.begin() + from, analysis_.end());
    delta_footprints.assign(footprints_.begin() + from, footprints_.end());
    snap->epoch = log_.epoch();
    snap->horizon = log_.size();
    snap->generation = log_.generation();
    // Full CoW clone: O(tables) page-pointer shares, no row copies. The
    // clone is immutable from here on — concurrent analyses stage their
    // own temporaries FROM it and fault in lock-free.
    snap->db = std::shared_ptr<const sql::Database>(db_.Clone());
    auto analyzer_copy = std::make_shared<QueryAnalyzer>(analyzer_);
    // The frozen copy must not feed the live static-soundness observer.
    analyzer_copy->set_observer(nullptr);
    snap->analyzer = std::move(analyzer_copy);
    held_us = NowMicros() - locked_at;
  }
  // Off the commit lock: the predecessor is immutable, so its O(horizon)
  // vectors are copied while writers keep committing.
  UV_FAILPOINT("whatif.snapshot.extend");
  const HistorySnapshot& base = pred ? *pred : EmptySnapshot();
  snap->entry_storage = base.entry_storage;
  auto pinned = std::make_shared<std::vector<const sql::LogEntry*>>();
  pinned->reserve(snap->horizon);
  pinned->insert(pinned->end(), base.entries->begin(), base.entries->end());
  if (!delta_entries.empty()) {
    auto segment = std::make_shared<const std::vector<sql::LogEntry>>(
        std::move(delta_entries));
    for (const sql::LogEntry& entry : *segment) pinned->push_back(&entry);
    snap->entry_storage.push_back(std::move(segment));
  }
  snap->entries = std::move(pinned);
  snap->analysis = Concat(*base.analysis, std::move(delta_analysis));
  snap->footprints = Concat(*base.footprints, std::move(delta_footprints));
  // The snapshot it replaces may be the last reference to an O(horizon)
  // history: it is released after the lock drops.
  std::shared_ptr<const HistorySnapshot> replaced = snap;
  {
    std::lock_guard<std::shared_mutex> g(commit_mu_);
    const uint64_t locked_at = NowMicros();
    if (!snapshot_cache_ || snapshot_cache_->epoch < snap->epoch) {
      std::swap(snapshot_cache_, replaced);
    }
    held_us += NowMicros() - locked_at;
  }
  // Writer stall: how long this build held the exclusive commit lock.
  if (obs::TimingEnabled()) lock_us->Record(held_us);
  return std::shared_ptr<const HistorySnapshot>(std::move(snap));
}

size_t Ultraverse::UltraverseLogBytes() {
  auto analysis = EnsureAnalysis();
  if (!analysis.ok()) return 0;
  size_t bytes = 0;
  for (const auto& rw : **analysis) bytes += rw.ApproxLogBytes();
  return bytes;
}

Status Ultraverse::InterpreterReplayExecutor(
    sql::Database* target, const sql::LogEntry& entry, uint64_t commit_index,
    std::atomic<uint64_t>* rtt_counter) {
  if (entry.app_txn.empty()) {
    // Raw SQL entry: execute directly with recorded nondeterminism.
    if (rtt_counter) {
      rtt_counter->fetch_add(options_.rtt_micros, std::memory_order_relaxed);
    }
    sql::ExecContext ctx;
    ctx.StartReplaying(&entry.nondet);
    Result<sql::ExecResult> r = target->Execute(*entry.stmt, commit_index, &ctx);
    return r.ok() ? Status::OK() : r.status();
  }
  sql::ExecContext ctx;
  ctx.StartReplaying(&entry.nondet);
  ReplayBridge bridge(target, &ctx, commit_index, rtt_counter,
                      options_.rtt_micros);
  ReplayHooks hooks(&entry.app_blackbox);
  app::Interpreter interp(&program_, &bridge, &hooks);
  std::vector<AppValue> args;
  args.reserve(entry.app_args.size());
  for (const auto& a : entry.app_args) {
    args.push_back(AppValue::FromSqlValue(a));
  }
  Result<AppValue> r = interp.CallFunction(entry.app_txn, std::move(args));
  if (!r.ok()) {
    target->RollbackToIndex(commit_index - 1);
    return r.status();
  }
  return Status::OK();
}

Result<RetroOp> Ultraverse::MakeOp(RetroOp::Kind kind, uint64_t index,
                                   const std::string& new_sql) {
  RetroOp op;
  op.kind = kind;
  op.index = index;
  if (kind != RetroOp::Kind::kRemove) {
    UV_ASSIGN_OR_RETURN(op.new_stmt, sql::Parser::ParseStatement(new_sql));
    op.new_sql = new_sql;
  }
  return op;
}

Result<ReplayStats> Ultraverse::WhatIf(const RetroOp& op, SystemMode mode,
                                       std::vector<ReplayRule> rules,
                                       const RequestContext& ctx) {
  static obs::Counter* const whatifs =
      obs::Registry::Global().counter("uv.whatif.ops");
  whatifs->Inc();
  obs::TraceSpan span("whatif", {{"index", op.index}});
  Stopwatch analysis_watch;
  // Pin the history (entries, analysis, footprints, analyzer) at the
  // current epoch. The engine replays against the pinned prefix while
  // regular traffic keeps committing; any commit that lands before the
  // publish point surfaces as kAborted there.
  std::shared_ptr<const HistorySnapshot> snap;
  {
    obs::TraceSpan analysis_span("whatif.ensure_analysis");
    UV_ASSIGN_OR_RETURN(snap, SnapshotHistory());
  }
  const uint64_t analyze_us = analysis_watch.ElapsedMicros();

  RetroactiveEngine::Options eopts;
  eopts.hash_jumper = options_.hash_jumper &&
                      (mode == SystemMode::kD || mode == SystemMode::kTD);
  eopts.verify_hash_hits = options_.verify_hash_hits;
  eopts.rules = std::move(rules);
  eopts.db_mutex = &commit_mu_;
  eopts.wal = wal_.get();  // two-phase publish when durability is on
  // On publish the engine rewrites the live log to the alternate history
  // inside its critical section, then hands control back here for cache
  // maintenance — all before the exclusive lock drops, so no concurrent
  // snapshot or second publish can observe the published database next to
  // the dead history.
  eopts.rewrite_log = &log_;
  eopts.on_published = [this](const RetroOp& o) { OnPublishedLocked(o); };
  UV_ASSIGN_OR_RETURN(ReplayStats stats, RunEngine(std::move(snap), &db_, op,
                                                   mode, ctx, std::move(eopts)));
  // Published: the live state diverged from everything derived at the old
  // epoch (snapshots, analyze-result cache, hash timelines). Advance the
  // epoch so every one of them invalidates on its next key check.
  log_.BumpEpoch();
  // The engine reported its own phases; prepend the facade's analysis step
  // (R/W analysis of any not-yet-analyzed log suffix).
  stats.report.phases.insert(stats.report.phases.begin(),
                             obs::PhaseBreakdown{"analyze", analyze_us, 0});
  return stats;
}

namespace {

/// The one state fingerprint format: SHA-256 over the tables `names`
/// lists, in that (sorted) order, each as its name followed by its encoded
/// rows in sorted order. Names `db` does not resolve are skipped.
std::string SortedRowFingerprint(const sql::Database& db,
                                 const std::vector<std::string>& names) {
  Sha256 hasher;
  for (const auto& name : names) {
    const sql::Table* t = db.FindTable(name);
    if (!t) continue;
    hasher.Update(name);
    std::vector<std::string> rows;
    t->Scan([&](sql::RowId, const sql::Row& row) {
      rows.push_back(sql::EncodeRow(row));
      return true;
    });
    std::sort(rows.begin(), rows.end());
    for (const auto& r : rows) hasher.Update(r);
  }
  return hasher.Finish().ToHex();
}

/// Fingerprint of the alternate universe an analyze-only run computed:
/// the temporary database overlaid on the snapshot it staged from (staged
/// and rebuilt tables win, retroactive drops tombstone, everything else
/// reads through the CoW fallback). Same format as StateFingerprint(), so
/// selective, full-naive and published universes compare directly.
std::string UniverseFingerprint(const sql::Database& snapshot,
                                const sql::Database& temp) {
  std::set<std::string> names;
  for (const auto& n : snapshot.TableNames()) names.insert(n);
  for (const auto& n : temp.TableNames()) names.insert(n);
  // Const lookup resolves exactly the overlay semantics: local table, then
  // drop tombstone, then the snapshot through the read fallback.
  return SortedRowFingerprint(
      temp, std::vector<std::string>(names.begin(), names.end()));
}

/// Canonical result-cache key: epoch is checked separately, so the key is
/// (mode, op kind, index, canonicalized statement text).
std::string AnalysisCacheKey(const RetroOp& op, SystemMode mode) {
  std::string key = SystemModeName(mode);
  key += '|';
  key += op.kind == RetroOp::Kind::kAdd      ? "add"
         : op.kind == RetroOp::Kind::kRemove ? "remove"
                                             : "change";
  key += '|';
  key += std::to_string(op.index);
  key += '|';
  // ToSql of the parsed form canonicalizes whitespace/case differences in
  // the user's SQL text, so equivalent questions share a cache line.
  if (op.new_stmt) {
    key += sql::ToSql(*op.new_stmt);
  } else {
    key += op.new_sql;
  }
  return key;
}

}  // namespace

Result<ReplayStats> Ultraverse::RunEngine(
    std::shared_ptr<const HistorySnapshot> snap, sql::Database* db,
    const RetroOp& op, SystemMode mode, const RequestContext& ctx,
    RetroactiveEngine::Options eopts, std::string* fingerprint) {
  const bool dep = mode == SystemMode::kD || mode == SystemMode::kTD;
  eopts.deps.column_wise = dep;
  eopts.deps.row_wise = dep;
  eopts.parallel = dep;
  eopts.cancel = ctx.cancel;
  eopts.retry = ctx.retry;
  eopts.explain = options_.explain;
  const bool use_app_code = mode == SystemMode::kB || mode == SystemMode::kD;
  if (!use_app_code) {
    eopts.rtt_micros_per_query = options_.rtt_micros;  // 1 RTT per CALL
  }

  // The engine analyzes the retroactive statement against its own copy of
  // the snapshot's analyzer, never the live one: the live analyzer evolves
  // with concurrent commits, and alias/merge state learned from an
  // uncommitted what-if must never leak into committed-history analysis.
  RetroactiveEngine engine(db, snap, std::move(eopts));
  std::atomic<uint64_t> rtt_counter{0};
  if (use_app_code) {
    engine.set_entry_executor(
        [this, &rtt_counter](sql::Database* target, const sql::LogEntry& entry,
                             uint64_t commit_index) {
          return InterpreterReplayExecutor(target, entry, commit_index,
                                           &rtt_counter);
        });
  }
  UV_ASSIGN_OR_RETURN(ReplayStats stats, engine.Execute(op));
  if (fingerprint != nullptr) {
    *fingerprint = UniverseFingerprint(*snap->db, *engine.last_temp_db());
  }
  stats.report.mode = SystemModeName(mode);
  uint64_t counted = rtt_counter.load(std::memory_order_relaxed);
  if (dep && stats.replayed > 0) {
    // Statement round trips counted across all replayed transactions
    // overlap along independent DAG chains: only the critical path's
    // share is wall time.
    counted = counted * stats.critical_path / stats.replayed;
  }
  stats.virtual_rtt_micros += counted;
  return stats;
}

Result<WhatIfAnalysis> Ultraverse::WhatIfAnalyzeAt(const HistorySnapshot& snap,
                                                   const RetroOp& op,
                                                   SystemMode mode,
                                                   bool full_naive,
                                                   const RequestContext& ctx) {
  static obs::Counter* const analyses =
      obs::Registry::Global().counter("uv.whatif.analyze.ops");
  analyses->Inc();
  obs::TraceSpan span("whatif.analyze",
                      {{"index", op.index}, {"epoch", snap.epoch}});

  RetroactiveEngine::Options eopts;
  // Without modelled RTT the engine picks the cheaper strategy per what-if
  // (DESIGN.md §7.1). With RTT the selective replay's overlap along the
  // conflict DAG's critical path outweighs the engine-time gap, and that
  // path is unknown until the plan is complete, so it stays selective.
  eopts.mode = full_naive                ? ReplayMode::kFullNaive
               : options_.rtt_micros == 0 ? ReplayMode::kAuto
                                          : ReplayMode::kSelective;
  // Analyze-only: no publish, no WAL marker, no live-database locks — the
  // snapshot is immutable, so staging and fault-ins run lock-free. The
  // engine additionally forces the Hash-jumper off (the temporary database
  // must reach the horizon to BE the result).
  eopts.publish = false;
  // The snapshot database is const by contract; publish=false guarantees
  // the engine only ever reads it (clone-from, fault-in-from, fingerprint),
  // so the cast does not break the sharing contract with other analyses.
  sql::Database* snap_db = const_cast<sql::Database*>(snap.db.get());
  WhatIfAnalysis out;
  UV_ASSIGN_OR_RETURN(out.stats,
                      RunEngine(snap.shared_from_this(), snap_db, op, mode, ctx,
                                std::move(eopts), &out.fingerprint));
  out.epoch = snap.epoch;
  out.horizon = snap.horizon;
  return out;
}

Result<WhatIfAnalysis> Ultraverse::WhatIfAnalyze(const RetroOp& op,
                                                 SystemMode mode,
                                                 const RequestContext& ctx) {
  static obs::Counter* const hits =
      obs::Registry::Global().counter("uv.whatif.cache.hit");
  static obs::Counter* const misses =
      obs::Registry::Global().counter("uv.whatif.cache.miss");
  static obs::Counter* const hit_verdicts =
      obs::Registry::Global().counter(
          std::string("uv.explain.verdict{reason=\"") +
          obs::TxnVerdictName(obs::TxnVerdict::kResultCacheHit) + "\"}");

  UV_ASSIGN_OR_RETURN(std::shared_ptr<const HistorySnapshot> snap,
                      SnapshotHistory());
  const std::string key = AnalysisCacheKey(op, mode);
  {
    std::lock_guard<std::mutex> g(result_mu_);
    if (result_cache_epoch_ == snap->epoch) {
      auto it = result_cache_.find(key);
      if (it != result_cache_.end()) {
        // Even a cached answer respects the request's deadline: an already
        // expired request gets its typed error, not a stale-looking hit.
        UV_RETURN_NOT_OK(CheckCancel(ctx.cancel, "whatif.analyze.cache"));
        hits->Inc();
        hit_verdicts->Inc();
        WhatIfAnalysis out = it->second;
        out.cache_hit = true;
        // The answer was reused wholesale: say so in its provenance.
        out.stats.report.Tally(obs::TxnVerdict::kResultCacheHit);
        return out;
      }
    }
  }
  misses->Inc();
  UV_ASSIGN_OR_RETURN(WhatIfAnalysis out,
                      WhatIfAnalyzeAt(*snap, op, mode, false, ctx));
  {
    std::lock_guard<std::mutex> g(result_mu_);
    if (result_cache_epoch_ != snap->epoch) {
      // Results memoized at an older epoch answer questions about a
      // history that no longer exists; drop them rather than let an
      // equal-length rewrite serve them again (the stale-epoch bug class
      // this PR fixes).
      result_cache_.clear();
      result_cache_epoch_ = snap->epoch;
    }
    result_cache_.emplace(key, out);
  }
  return out;
}

void Ultraverse::Checkpoint() {
  std::lock_guard<std::shared_mutex> g(commit_mu_);
  db_.TrimJournalsBefore(log_.last_index() + 1);
}

void Ultraverse::TagScenario(const std::string& name) {
  // Exclusive: the tag map itself is written, not just the log read.
  std::lock_guard<std::shared_mutex> g(commit_mu_);
  scenario_tags_[name] = log_.last_index();
}

std::string FingerprintDatabase(const sql::Database& db) {
  return SortedRowFingerprint(db, db.TableNames());
}

std::string Ultraverse::StateFingerprint() const {
  std::shared_lock<std::shared_mutex> g(commit_mu_);
  return FingerprintDatabase(db_);
}

}  // namespace ultraverse::core
