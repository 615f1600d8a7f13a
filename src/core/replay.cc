#include "core/replay.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>
#include <set>

#include "fault/failpoint.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqldb/parser.h"
#include "sqldb/wal/wal.h"
#include "util/stopwatch.h"
#include "util/virtual_clock.h"

namespace ultraverse::core {

ReplayErrorClass ClassifyReplayError(const Status& st) {
  switch (st.code()) {
    // Transient infrastructure faults: the statement's effects rolled back
    // atomically, so re-running it is safe and may well succeed.
    case StatusCode::kUnavailable:
      return ReplayErrorClass::kRetryable;
    // Invariant breakage, durable-log corruption, cooperative stop, or an
    // optimistic-concurrency conflict at publish time: abort the replay.
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kAborted:
      return ReplayErrorClass::kFatal;
    // Everything else is a SQL-semantic failure the alternate universe can
    // legitimately produce (constraint trip, retroactively dropped table,
    // SIGNAL, interpreter budget): skip the statement, keep replaying.
    default:
      return ReplayErrorClass::kBenignSkip;
  }
}

/// Original-timeline table hashes: for each table, the (commit index,
/// digest) sequence logged by the Hash-jumper logger (§4.5).
class HashTimeline {
 public:
  explicit HashTimeline(const sql::QueryLog& log) {
    for (const auto& entry : log.entries()) {
      Add(entry);
    }
  }

  /// Snapshot-mode build: iterating the live deque would race concurrent
  /// appends, so the pinned entry pointers captured under the commit lock
  /// are the only safe history view.
  explicit HashTimeline(const std::vector<const sql::LogEntry*>& pinned) {
    for (const sql::LogEntry* entry : pinned) Add(*entry);
  }

  /// The logged digest of `table` at the last write at-or-before `index`;
  /// nullptr when no logged write precedes it.
  const Digest256* HashAt(const std::string& table, uint64_t index) const {
    auto it = per_table_.find(table);
    if (it == per_table_.end()) return nullptr;
    const auto& seq = it->second;
    auto pos = std::upper_bound(
        seq.begin(), seq.end(), index,
        [](uint64_t idx, const auto& p) { return idx < p.first; });
    if (pos == seq.begin()) return nullptr;
    return &std::prev(pos)->second;
  }

 private:
  void Add(const sql::LogEntry& entry) {
    for (const auto& [table, digest] : entry.table_hashes) {
      per_table_[table].emplace_back(entry.index, digest);
    }
  }

  std::map<std::string, std::vector<std::pair<uint64_t, Digest256>>>
      per_table_;
};

const HashTimeline* RetroactiveEngine::EnsureTimeline() {
  // Keyed by the history *epoch*, never by log size: a what-if publish or
  // WAL recovery rewrites entries in place without changing the length,
  // and a size-keyed cache would keep serving the dead timeline's digests
  // (the Hash-jumper would then "converge" against a universe that no
  // longer exists). Snapshot executions key on the epoch their history
  // was pinned at.
  const uint64_t epoch = options_.snapshot_epoch ? *options_.snapshot_epoch
                                                 : log_->epoch();
  if (timeline_ && timeline_epoch_ == epoch) return timeline_.get();
  if (options_.timeline_cache) {
    std::lock_guard<std::mutex> g(options_.timeline_cache->mu);
    if (options_.timeline_cache->timeline &&
        options_.timeline_cache->epoch == epoch) {
      timeline_ = options_.timeline_cache->timeline;
      timeline_epoch_ = epoch;
      return timeline_.get();
    }
  }
  timeline_ = options_.pinned_entries
                  ? std::make_shared<const HashTimeline>(
                        *options_.pinned_entries)
                  : std::make_shared<const HashTimeline>(*log_);
  timeline_epoch_ = epoch;
  if (options_.timeline_cache) {
    std::lock_guard<std::mutex> g(options_.timeline_cache->mu);
    options_.timeline_cache->epoch = epoch;
    options_.timeline_cache->timeline = timeline_;
  }
  return timeline_.get();
}

const sql::LogEntry& RetroactiveEngine::EntryAt(uint64_t index) const {
  if (options_.pinned_entries) return *(*options_.pinned_entries)[index - 1];
  return log_->at(index);
}

uint64_t RetroactiveEngine::HistoryEnd() const {
  return options_.horizon_override ? options_.horizon_override
                                   : log_->last_index();
}

RetroactiveEngine::~RetroactiveEngine() = default;

RetroactiveEngine::RetroactiveEngine(sql::Database* db,
                                     const sql::QueryLog* log, Options options)
    : db_(db), log_(log), options_(options) {
  entry_executor_ = [](sql::Database* target, const sql::LogEntry& entry,
                       uint64_t commit_index) -> Status {
    sql::ExecContext ctx;
    ctx.StartReplaying(&entry.nondet);
    Result<sql::ExecResult> r = target->Execute(*entry.stmt, commit_index, &ctx);
    // SIGNAL traps from transpiled procedures surface to the caller;
    // other errors abort the replay.
    return r.ok() ? Status::OK() : r.status();
  };
}

Status RetroactiveEngine::ExecuteSlot(sql::Database* db, const Slot& slot,
                                      const RetroOp& op,
                                      uint64_t commit_index, bool apply_rules) {
  Status st;
  if (apply_rules && !slot.is_new && !parsed_rules_.empty()) {
    const sql::LogEntry& entry = EntryAt(slot.log_index);
    if (!entry.app_txn.empty()) {
      for (const auto& [fn, cond] : parsed_rules_) {
        if (!fn.empty() && fn != entry.app_txn) continue;
        sql::ExecContext ctx;
        Result<sql::ExecResult> when = db->Execute(*cond, commit_index, &ctx);
        if (when.ok() && !when->rows.empty() && !when->rows[0].empty() &&
            !when->rows[0][0].is_null() && when->rows[0][0].AsBool()) {
          ++suppressed_;
          return Status::OK();  // the simulated human decided not to act
        }
      }
    }
  }
  auto attempt = [&]() -> Status {
    UV_FAILPOINT("replay.slot.pre_exec");
    if (slot.is_new) {
      sql::ExecContext ctx;
      sql::NondetRecord fresh;
      if (options_.new_stmt_nondet) {
        // Recovery path: reproduce the recorded nondeterminism of the
        // original what-if so the re-derived universe is bit-identical.
        ctx.StartReplaying(options_.new_stmt_nondet);
      } else {
        ctx.StartRecording(&fresh);  // a new query generates fresh values
      }
      Result<sql::ExecResult> r = db->Execute(*op.new_stmt, commit_index, &ctx);
      if (r.ok() && !options_.new_stmt_nondet) {
        captured_new_nondet_ = std::move(fresh);
      }
      return r.ok() ? Status::OK() : r.status();
    }
    return entry_executor_(db, EntryAt(slot.log_index), commit_index);
  };

  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.slot"));
  if (options_.retry.enabled()) {
    static obs::Counter* const retries =
        obs::Registry::Global().counter("uv.retry.attempts");
    st = RetryWithBackoff(
        options_.retry, options_.cancel,
        [&]() -> Status {
          Status s = attempt();
          return s;
        },
        [&](int, const Status&) { retries->Inc(); });
  } else {
    st = attempt();
  }

  switch (st.ok() ? ReplayErrorClass::kBenignSkip : ClassifyReplayError(st)) {
    case ReplayErrorClass::kBenignSkip:
      // A replayed query may legitimately fail in the alternate universe
      // (e.g. it inserts into a table whose CREATE was retroactively
      // removed, or a NOT NULL constraint now trips). The statement's own
      // effects rolled back atomically; the replay continues without it.
      return Status::OK();
    case ReplayErrorClass::kRetryable:
      // Retry budget exhausted (or retries disabled): a transient fault
      // that never cleared is a real failure, not a skippable statement.
      return st;
    case ReplayErrorClass::kFatal:
      return st;
  }
  return st;
}

namespace {

/// Cumulative layer counters sampled at Execute() start and end: the deltas
/// are what ran between the two samples. With one what-if at a time they
/// attribute exactly to this analysis; under concurrent analyze-only
/// executions (DESIGN.md §14) the process-wide counters interleave, so the
/// per-report deltas are an aggregate approximation — totals across all
/// concurrent reports remain exact.
struct LayerCounters {
  static constexpr size_t kN = 10;
  obs::Counter* c[kN];

  static const LayerCounters& Get() {
    static LayerCounters lc = [] {
      auto& reg = obs::Registry::Global();
      return LayerCounters{{reg.counter("uv.staging.tables_staged"),
                            reg.counter("uv.staging.fault_in"),
                            reg.counter("uv.vm.plan_cache.hit"),
                            reg.counter("uv.vm.plan_cache.miss"),
                            reg.counter("uv.vm.access.index_path"),
                            reg.counter("uv.vm.access.scan_path"),
                            reg.counter("uv.vm.access.advisory_built"),
                            reg.counter("uv.vm.tree_fallback"),
                            reg.counter("uv.retry.attempts"),
                            reg.counter("uv.fault.injected")}};
    }();
    return lc;
  }

  std::array<uint64_t, kN> Sample() const {
    std::array<uint64_t, kN> out;
    for (size_t i = 0; i < kN; ++i) out[i] = c[i]->Value();
    return out;
  }
};

void ApplyLayerDeltas(const std::array<uint64_t, LayerCounters::kN>& base,
                      obs::WhatIfReport* report) {
  auto now = LayerCounters::Get().Sample();
  report->tables_staged = now[0] - base[0];
  report->pages_faulted = now[1] - base[1];
  report->plan_cache_hits = now[2] - base[2];
  report->plan_cache_misses = now[3] - base[3];
  report->vm_index_path = now[4] - base[4];
  report->vm_scan_path = now[5] - base[5];
  report->vm_advisory_built = now[6] - base[6];
  report->vm_tree_fallbacks = now[7] - base[7];
  report->retries = now[8] - base[8];
  report->faults_injected = now[9] - base[9];
}

obs::TxnVerdict VerdictFor(PlanExclusion e) {
  switch (e) {
    case PlanExclusion::kMember:
      return obs::TxnVerdict::kReplayed;
    case PlanExclusion::kTargetSlot:
      return obs::TxnVerdict::kRetroTarget;
    case PlanExclusion::kReadOnly:
      return obs::TxnVerdict::kPrunedReadOnly;
    case PlanExclusion::kStaticDisjoint:
      return obs::TxnVerdict::kPrunedStaticFootprint;
    case PlanExclusion::kPredicateDisjoint:
      return obs::TxnVerdict::kPrunedPredicateDisjoint;
    case PlanExclusion::kColumnDisjoint:
      return obs::TxnVerdict::kPrunedColumnDisjoint;
    case PlanExclusion::kClusterExcluded:
      return obs::TxnVerdict::kClusterExcluded;
  }
  return obs::TxnVerdict::kReplayed;
}

const char* EvidenceFor(PlanExclusion e) {
  switch (e) {
    case PlanExclusion::kMember:
      return "dependency closure member";
    case PlanExclusion::kTargetSlot:
      return "retroactive target slot";
    case PlanExclusion::kReadOnly:
      return "empty write set";
    case PlanExclusion::kStaticDisjoint:
      return "static table footprint disjoint from accumulated members";
    case PlanExclusion::kPredicateDisjoint:
      return "row predicate regions provably disjoint from accumulated "
             "members";
    case PlanExclusion::kColumnDisjoint:
      return "no column-granularity dependency rule fired";
    case PlanExclusion::kClusterExcluded:
      return "column cluster member excluded by row-closure intersection";
  }
  return "";
}

/// Per-verdict counters, labeled Prometheus-style; the exporter escapes the
/// label values (metrics.cc).
void TallyVerdictMetrics(const obs::WhatIfReport& report) {
  static const std::array<obs::Counter*, obs::kNumTxnVerdicts> counters = [] {
    std::array<obs::Counter*, obs::kNumTxnVerdicts> c{};
    for (int i = 0; i < obs::kNumTxnVerdicts; ++i) {
      c[size_t(i)] = obs::Registry::Global().counter(
          std::string("uv.explain.verdict{reason=\"") +
          obs::TxnVerdictName(obs::TxnVerdict(i)) + "\"}");
    }
    return c;
  }();
  for (int i = 0; i < obs::kNumTxnVerdicts; ++i) {
    if (report.verdict_counts[size_t(i)]) {
      counters[size_t(i)]->Add(report.verdict_counts[size_t(i)]);
    }
  }
}

const char* RetroOpName(RetroOp::Kind kind) {
  switch (kind) {
    case RetroOp::Kind::kAdd:
      return "add";
    case RetroOp::Kind::kRemove:
      return "remove";
    case RetroOp::Kind::kChange:
      return "change";
  }
  return "?";
}

}  // namespace

Result<ReplayStats> RetroactiveEngine::ExecuteFullNaive(const RetroOp& op,
                                                        uint64_t horizon) {
  ReplayStats stats;
  stats.history_size = horizon;
  stats.suffix_size = horizon >= op.index ? horizon - op.index + 1 : 0;
  stats.schema_rebuild = true;  // the whole universe is rebuilt from the log
  Stopwatch total_watch;
  obs::TraceSpan op_span("replay.full_naive",
                         {{"index", op.index}, {"history", horizon}});
  static obs::Counter* const naive_runs =
      obs::Registry::Global().counter("uv.oracle.naive.runs");
  static obs::Counter* const naive_prefix_entries =
      obs::Registry::Global().counter("uv.oracle.naive.prefix_entries");
  static obs::Counter* const naive_suffix_entries =
      obs::Registry::Global().counter("uv.oracle.naive.suffix_entries");
  static obs::Histogram* const naive_total_us =
      obs::Registry::Global().histogram("uv.oracle.naive.total_us");
  naive_runs->Inc();

  const bool explain_on = options_.explain != obs::ExplainLevel::kOff;
  obs::WhatIfReport& report = stats.report;
  uint64_t flight_token = 0;
  std::array<uint64_t, LayerCounters::kN> layer_base{};
  uint64_t phase_cpu = 0;
  if (explain_on) {
    report.op = RetroOpName(op.kind);
    report.target_index = op.index;
    report.mode = "full-naive";
    report.level = obs::ExplainLevel::kSummary;  // no per-txn vector here
    report.suffix_size = stats.suffix_size;
    layer_base = LayerCounters::Get().Sample();
    phase_cpu = obs::NowCpuMicros();
    flight_token = obs::FlightRecorder::Global().Begin(report);
  }
  auto end_phase = [&](const char* name, uint64_t wall_us) {
    if (!explain_on) return;
    uint64_t cpu = obs::NowCpuMicros();
    report.phases.push_back(obs::PhaseBreakdown{name, wall_us,
                                                cpu - phase_cpu});
    phase_cpu = cpu;
    obs::FlightRecorder::Global().Update(flight_token, report,
                                         /*completed=*/false);
  };

  temp_db_ = std::make_unique<sql::Database>();
  temp_db_->set_exec_engine(db_->exec_engine());
  size_t executed = 0;

  // Settled prefix: recorded nondeterminism, no §6 rules.
  Stopwatch rollback_watch;
  {
    obs::TraceSpan prefix_span("naive.prefix", {{"entries", op.index - 1}});
    for (uint64_t idx = 1; idx < op.index; ++idx) {
      UV_RETURN_NOT_OK(ExecuteSlot(temp_db_.get(), Slot{false, idx}, op, idx,
                                   /*apply_rules=*/false));
    }
  }
  naive_prefix_entries->Add(op.index - 1);
  stats.rollback_seconds = rollback_watch.ElapsedSeconds();
  end_phase("stage", rollback_watch.ElapsedMicros());

  // High-watermark AUTO_INCREMENT policy + logical-clock alignment: the
  // selective path stages a CoW clone of the *live* database, so its
  // counters and clock sit at the end of the original history. Seed the
  // rebuilt universe identically, so a retroactively added INSERT draws
  // the same fresh ids and NOW() values in every replay mode (DESIGN.md §9).
  {
    // Shared lock: live inserts mutate the auto-increment map concurrently.
    std::shared_lock<std::shared_mutex> seed_lock;
    if (options_.db_mutex) {
      seed_lock = std::shared_lock<std::shared_mutex>(*options_.db_mutex);
    }
    temp_db_->SeedAutoIncrementFloor(db_->auto_increment_state());
    temp_db_->SetLogicalTime(db_->logical_time());
  }

  // Rewritten suffix: the retroactive op slots in at τ, the removed/changed
  // original drops out, everything else replays in order.
  Stopwatch replay_watch;
  const bool replay_target = op.kind != RetroOp::Kind::kRemove;
  uint64_t commit = op.index;
  {
    obs::TraceSpan suffix_span("naive.suffix",
                               {{"entries", stats.suffix_size}});
    if (replay_target) {
      UV_RETURN_NOT_OK(
          ExecuteSlot(temp_db_.get(), Slot{true, op.index}, op, commit++));
      ++executed;
    }
    for (uint64_t idx = op.index; idx <= horizon; ++idx) {
      if (idx == op.index && op.kind != RetroOp::Kind::kAdd) continue;
      UV_RETURN_NOT_OK(
          ExecuteSlot(temp_db_.get(), Slot{false, idx}, op, commit++));
      ++executed;
    }
  }
  naive_suffix_entries->Add(executed);
  stats.replay_seconds = replay_watch.ElapsedSeconds();
  end_phase("replay", replay_watch.ElapsedMicros());
  stats.replayed = executed;
  stats.planned_replay = executed;
  stats.suppressed = suppressed_;
  stats.virtual_rtt_micros = options_.rtt_micros_per_query * executed;
  stats.temp_db_bytes = temp_db_->ApproxOwnedBytes();

  // Two-phase publish applies to the reference path too: recovery replays
  // committed markers through exactly this full-naive path. Analyze-only
  // executions stop here: the rebuilt universe in last_temp_db() IS the
  // result, and the live database stays untouched.
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.publish"));
  Stopwatch publish_watch;
  if (options_.publish) {
    // Adopt everything: tables present on either side (a table the
    // rewritten history never creates must disappear from the live
    // database) plus the object catalog. Exclusive from the epoch conflict
    // check through the swap, so no commit slips in between.
    obs::TraceSpan adopt_span("naive.adopt");
    std::unique_lock<std::shared_mutex> publish_lock;
    if (options_.db_mutex) {
      publish_lock = std::unique_lock<std::shared_mutex>(*options_.db_mutex);
    }
    if (options_.snapshot_epoch && log_->epoch() != *options_.snapshot_epoch) {
      static obs::Counter* const conflicts =
          obs::Registry::Global().counter("uv.whatif.publish.conflict");
      conflicts->Inc();
      return Status::Aborted(
          "history advanced during what-if replay; re-run against a fresh "
          "snapshot");
    }
    UV_RETURN_NOT_OK(PublishCommitMarker(op));
    std::set<std::string> names;
    for (auto& n : db_->TableNames()) names.insert(n);
    for (auto& n : temp_db_->TableNames()) names.insert(n);
    std::vector<std::string> all(names.begin(), names.end());
    stats.mutated_tables = all.size();
    UV_RETURN_NOT_OK(db_->AdoptTables(*temp_db_, all));
    db_->AdoptCatalog(*temp_db_);
    // Same contract as the selective path: the log must describe the
    // history that is now live before the lock drops. Recovery's marker
    // replay rides this too — it rewrites the partially rebuilt log so
    // later WAL entries and markers land on the same history they did
    // originally.
    RewritePublishedLog(op);
    if (options_.on_published) options_.on_published(op);
  } else {
    stats.mutated_tables = temp_db_->TableNames().size();
  }
  stats.total_seconds = total_watch.ElapsedSeconds();
  naive_total_us->Record(total_watch.ElapsedMicros());
  stats.obs = obs::Registry::Global().Collect();
  if (explain_on) {
    report.replayed = stats.replayed;
    report.skipped = 0;
    // Full-naive replays everything: every suffix slot is a kReplayed
    // verdict except the vacated target slot of a remove/change.
    report.verdict_counts[size_t(obs::TxnVerdict::kReplayed)] =
        executed > (replay_target ? 1u : 0u)
            ? executed - (replay_target ? 1u : 0u)
            : 0;
    if (op.kind != RetroOp::Kind::kAdd && stats.suffix_size > 0) {
      report.Tally(obs::TxnVerdict::kRetroTarget);
    }
    end_phase("publish", publish_watch.ElapsedMicros());
    report.staged_bytes = stats.temp_db_bytes;
    ApplyLayerDeltas(layer_base, &report);
    TallyVerdictMetrics(report);
    obs::FlightRecorder::Global().Update(flight_token, report,
                                         /*completed=*/true);
  }
  return stats;
}

Result<ReplayStats> RetroactiveEngine::Execute(
    const RetroOp& op, const std::vector<QueryRW>& analysis,
    QueryAnalyzer* analyzer) {
  // History extent this execution sees: the pinned snapshot horizon when
  // the facade froze one, the live log otherwise. Everything below reads
  // history through EntryAt()/history_end only — never through the live
  // deque, which concurrent writers keep appending to.
  const uint64_t history_end = HistoryEnd();
  if (op.index == 0 || op.index > history_end + 1) {
    return Status::InvalidArgument("retroactive index out of range");
  }
  if (op.kind != RetroOp::Kind::kAdd && op.index > history_end) {
    return Status::InvalidArgument("no such query to remove/change");
  }
  // The replay horizon is the analyzed prefix: queries committed after the
  // analysis snapshot belong to the next catch-up phase (§4.4).
  const uint64_t horizon = std::min<uint64_t>(analysis.size(), history_end);
  if (op.index > horizon + 1) {
    return Status::InvalidArgument("analysis does not cover the target");
  }

  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.start"));
  parsed_rules_.clear();
  suppressed_ = 0;
  captured_new_nondet_ = sql::NondetRecord{};
  for (const auto& rule : options_.rules) {
    UV_ASSIGN_OR_RETURN(sql::StatementPtr cond,
                        sql::Parser::ParseStatement(rule.when_sql));
    parsed_rules_.emplace_back(rule.function, std::move(cond));
  }

  if (options_.mode == ReplayMode::kFullNaive) {
    // Ground-truth reference path: no dependency analysis, no staging
    // tricks, no Hash-jumper — just the rewritten history, start to end.
    return ExecuteFullNaive(op, horizon);
  }

  ReplayStats stats;
  stats.history_size = horizon;
  stats.suffix_size = horizon >= op.index ? horizon - op.index + 1 : 0;
  Stopwatch total_watch;

  // --- Decision-provenance report (DESIGN.md §13) --------------------------
  // Assembled alongside the analysis; the flight recorder holds an
  // in-flight copy from the first phase on, so a crash anywhere below
  // leaves this very report as the newest ring entry.
  const bool explain_on = options_.explain != obs::ExplainLevel::kOff;
  const bool explain_full = options_.explain == obs::ExplainLevel::kFull;
  obs::WhatIfReport& report = stats.report;
  uint64_t flight_token = 0;
  std::array<uint64_t, LayerCounters::kN> layer_base{};
  uint64_t phase_cpu = 0;
  if (explain_on) {
    report.op = RetroOpName(op.kind);
    report.target_index = op.index;
    report.level = options_.explain;
    report.suffix_size = stats.suffix_size;
    layer_base = LayerCounters::Get().Sample();
    phase_cpu = obs::NowCpuMicros();
    flight_token = obs::FlightRecorder::Global().Begin(report);
  }
  auto end_phase = [&](const char* name, uint64_t wall_us) {
    if (!explain_on) return;
    uint64_t cpu = obs::NowCpuMicros();
    report.phases.push_back(obs::PhaseBreakdown{name, wall_us,
                                                cpu - phase_cpu});
    phase_cpu = cpu;
    obs::FlightRecorder::Global().Update(flight_token, report,
                                         /*completed=*/false);
  };
  obs::TraceSpan op_span(
      "replay.execute",
      {{"op", op.kind == RetroOp::Kind::kAdd      ? "add"
              : op.kind == RetroOp::Kind::kRemove ? "remove"
                                                  : "change"},
       {"index", op.index},
       {"history", horizon}});
  // One span per pipeline phase; emplace() closes the previous phase and
  // opens the next, so the trace shows analysis → rollback → replay → adopt
  // nested under replay.execute.
  std::optional<obs::TraceSpan> phase_span;
  phase_span.emplace("replay.analysis");

  // --- 1. Dependency analysis / replay plan ------------------------------
  Stopwatch analysis_watch;
  QueryRW target_rw;
  bool replay_target = op.kind != RetroOp::Kind::kRemove;
  if (op.kind == RetroOp::Kind::kRemove) {
    target_rw = analysis[op.index - 1];
  } else {
    UV_ASSIGN_OR_RETURN(target_rw,
                        analyzer->AnalyzeStatement(*op.new_stmt, nullptr));
    if (op.kind == RetroOp::Kind::kChange) {
      // Union old + new effects: dependents of either must replay.
      target_rw.rc.Merge(analysis[op.index - 1].rc);
      target_rw.wc.Merge(analysis[op.index - 1].wc);
      target_rw.rr.Merge(analysis[op.index - 1].rr);
      target_rw.wr.Merge(analysis[op.index - 1].wr);
      const auto& old_rw = analysis[op.index - 1];
      target_rw.read_tables.insert(old_rw.read_tables.begin(),
                                   old_rw.read_tables.end());
      target_rw.write_tables.insert(old_rw.write_tables.begin(),
                                    old_rw.write_tables.end());
      target_rw.is_ddl = target_rw.is_ddl || old_rw.is_ddl;
      target_rw.overwrites = target_rw.overwrites || old_rw.overwrites;
    }
  }
  DependencyOptions deps = options_.deps;
  deps.record_exclusions = explain_on;
  // Ground-truth gate (--check-explain): seed selected suffix indices into
  // the closure as unconditional members. Seeding — not merging into the
  // finished plan — keeps the closure invariant: later writers of a forced
  // member's cells join through the ordinary rules, so query-selective
  // rollback of the forced commit cannot orphan a later write it feeds. A
  // soundly pruned transaction re-run this way reproduces the same final
  // state.
  std::set<uint64_t> forced_members;
  for (uint64_t idx : options_.forced_replay) {
    if (idx < op.index || idx > horizon) continue;
    if (idx == op.index && op.kind != RetroOp::Kind::kAdd) continue;
    forced_members.insert(idx);
  }
  if (!forced_members.empty()) deps.forced_members = &forced_members;
  ReplayPlan plan = ComputeReplayPlan(
      analysis, op.index, target_rw,
      /*target_occupies_slot=*/op.kind != RetroOp::Kind::kAdd, deps);
  // kChange replaces the old query: it must not replay verbatim.
  if (op.kind == RetroOp::Kind::kChange || op.kind == RetroOp::Kind::kRemove) {
    plan.replay_indices.erase(std::remove(plan.replay_indices.begin(),
                                          plan.replay_indices.end(), op.index),
                              plan.replay_indices.end());
  }
  // With dependency analysis off (B/T modes) every suffix query replays,
  // including ones that only read: the baseline cannot know better. Keep
  // plan as computed (write-only queries) — the paper's baselines also
  // skip pure reads during replay since they cannot change state.
  stats.planned_replay = plan.replay_indices.size() + (replay_target ? 1 : 0);
  stats.replayed = stats.planned_replay;
  stats.skipped = stats.suffix_size > plan.replay_indices.size()
                      ? stats.suffix_size - plan.replay_indices.size()
                      : 0;
  stats.mutated_tables = plan.mutated_tables.size();
  stats.consulted_tables = plan.consulted_tables.size();
  stats.schema_rebuild = plan.needs_schema_rebuild;
  stats.analysis_seconds = analysis_watch.ElapsedSeconds();
  // Catalog mutations in the plan (a DDL target or member) are invisible
  // to per-table row digests: removing a CREATE INDEX leaves every row
  // multiset identical, so the first probe "hits" and adoption — which is
  // what would drop the index from the live catalog — gets skipped. A
  // hash hit proves row convergence only; disable jumping whenever the
  // replay changes catalog state. (Differential-oracle find, DESIGN.md
  // §9.) Checked before force_rebuild / journal-horizon widening below,
  // which set needs_schema_rebuild without any catalog change. Analyze-only
  // executions also force it off: a jump proves the replayed state
  // reconverged with the live timeline and leaves the temporary database
  // frozen mid-history — correct when adoption is then skipped, but an
  // analyze-only caller reads the temporary database AS the result, so it
  // must always be driven to the horizon.
  const bool hash_jumper_on =
      options_.hash_jumper && !plan.needs_schema_rebuild && options_.publish;
  {
    static obs::Histogram* const h_analysis =
        obs::Registry::Global().histogram("uv.replay.phase.analysis_us");
    static obs::Counter* const planned =
        obs::Registry::Global().counter("uv.replay.slots.planned");
    static obs::Counter* const skipped =
        obs::Registry::Global().counter("uv.replay.slots.skipped");
    h_analysis->Record(analysis_watch.ElapsedMicros());
    planned->Add(stats.planned_replay);
    skipped->Add(stats.skipped);
  }
  if (explain_on) {
    for (PlanExclusion e : plan.exclusions) report.Tally(VerdictFor(e));
    if (explain_full) {
      report.txns.reserve(plan.exclusions.size() + 1);
      if (replay_target) {
        obs::TxnExplain te;
        te.index = op.index;
        te.is_new = true;
        te.evidence = "retroactive statement executes at its insertion slot";
        te.read_tables.assign(target_rw.read_tables.begin(),
                              target_rw.read_tables.end());
        te.write_tables.assign(target_rw.write_tables.begin(),
                               target_rw.write_tables.end());
        report.txns.push_back(std::move(te));
      }
      for (size_t j = 0; j < plan.exclusions.size(); ++j) {
        uint64_t idx = plan.exclusions_base + j;
        const QueryRW& rw = analysis[idx - 1];
        obs::TxnExplain te;
        te.index = idx;
        te.verdict = VerdictFor(plan.exclusions[j]);
        te.evidence = forced_members.count(idx)
                          ? "forced replay (ground-truth gate)"
                          : EvidenceFor(plan.exclusions[j]);
        if (!forced_members.count(idx) &&
            j < plan.exclusion_detail.size() &&
            !plan.exclusion_detail[j].empty()) {
          // Predicate-tier verdicts carry the disjoint region pair.
          te.evidence += ": " + plan.exclusion_detail[j];
        }
        te.read_tables.assign(rw.read_tables.begin(), rw.read_tables.end());
        te.write_tables.assign(rw.write_tables.begin(),
                               rw.write_tables.end());
        te.cluster_id = plan.cluster_ids[j];
        report.txns.push_back(std::move(te));
      }
    }
  }
  end_phase("plan", analysis_watch.ElapsedMicros());

  // --- 2. Stage the temporary database ------------------------------------
  phase_span.emplace("replay.rollback");
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.stage"));
  UV_FAILPOINT("replay.stage.pre");
  Stopwatch rollback_watch;
  std::vector<std::string> affected(plan.mutated_tables.begin(),
                                    plan.mutated_tables.end());
  affected.insert(affected.end(), plan.consulted_tables.begin(),
                  plan.consulted_tables.end());
  if (options_.force_rebuild && !plan.needs_schema_rebuild) {
    plan.needs_schema_rebuild = true;
    stats.schema_rebuild = true;
  }
  // Journal horizon: if a checkpoint trimmed the undo entries of a commit
  // we must roll back (§5 rollback option (iii)), the journal cannot stage
  // the rollback; rebuild from the log instead.
  if (!plan.needs_schema_rebuild) {
    uint64_t trimmed = 0;
    {
      // Shared lock: checkpoints advance trimmed_before() under the
      // exclusive side of the same mutex.
      std::shared_lock<std::shared_mutex> rl;
      if (options_.db_mutex) {
        rl = std::shared_lock<std::shared_mutex>(*options_.db_mutex);
      }
      for (const auto& t : plan.mutated_tables) {
        const sql::Table* table = db_->FindTable(t);
        if (table) trimmed = std::max(trimmed, table->trimmed_before());
      }
    }
    bool undo_before_horizon =
        op.kind != RetroOp::Kind::kAdd && op.index < trimmed;
    for (uint64_t idx : plan.replay_indices) {
      if (idx < trimmed) undo_before_horizon = true;
    }
    if (undo_before_horizon) {
      plan.needs_schema_rebuild = true;
      stats.schema_rebuild = true;
    }
  }
  if (plan.needs_schema_rebuild) {
    // The rebuilt temporary database starts empty, so *every* suffix write
    // must replay — a pruned plan would lose the cell-independent writes
    // that journal rollback preserves. The rebuild path therefore widens
    // the plan to the full write-suffix (it is the slow path regardless).
    std::set<uint64_t> widened(plan.replay_indices.begin(),
                               plan.replay_indices.end());
    for (uint64_t idx = op.index; idx <= horizon; ++idx) {
      if (idx == op.index && op.kind != RetroOp::Kind::kAdd) continue;
      const QueryRW& rw = analysis[idx - 1];
      if (rw.wc.empty()) continue;
      widened.insert(idx);
      plan.mutated_tables.insert(rw.write_tables.begin(),
                                 rw.write_tables.end());
    }
    plan.replay_indices.assign(widened.begin(), widened.end());
    stats.replayed = plan.replay_indices.size() + (replay_target ? 1 : 0);
    stats.planned_replay = stats.replayed;
    stats.mutated_tables = plan.mutated_tables.size();
    // Rebuild-widened members replay for staging reasons, not because a
    // dependency rule fired — the report says so explicitly.
    if (explain_on && !plan.exclusions.empty()) {
      for (uint64_t idx : plan.replay_indices) {
        size_t j = size_t(idx - plan.exclusions_base);
        if (idx < plan.exclusions_base || j >= plan.exclusions.size()) {
          continue;
        }
        if (plan.exclusions[j] == PlanExclusion::kMember) continue;
        --report.verdict_counts[size_t(VerdictFor(plan.exclusions[j]))];
        report.Tally(obs::TxnVerdict::kReplayed);
        plan.exclusions[j] = PlanExclusion::kMember;
        if (explain_full) {
          obs::TxnExplain& te = report.txns[(replay_target ? 1 : 0) + j];
          te.verdict = obs::TxnVerdict::kReplayed;
          te.rebuild_widened = true;
          te.evidence =
              "schema rebuild widens the plan to the full write-suffix";
        }
      }
    }
  }
  if (plan.needs_schema_rebuild) {
    // Schema changes cannot be undone from table journals: rebuild the
    // prefix universe from scratch (checkpoint-less slow path).
    temp_db_ = std::make_unique<sql::Database>();
    temp_db_->set_exec_engine(db_->exec_engine());
    for (uint64_t idx = 1; idx < op.index; ++idx) {
      Slot slot{false, idx};
      UV_RETURN_NOT_OK(ExecuteSlot(temp_db_.get(), slot, op, idx,
                                   /*apply_rules=*/false));
    }
    // Match the CoW staging path, whose clone carries the live database's
    // end-of-history AUTO_INCREMENT watermarks and logical clock: fresh ids
    // for retroactively added statements allocate above everything the
    // original history handed out, in every replay mode (DESIGN.md §9).
    {
      std::shared_lock<std::shared_mutex> seed_lock;
      if (options_.db_mutex) {
        seed_lock = std::shared_lock<std::shared_mutex>(*options_.db_mutex);
      }
      temp_db_->SeedAutoIncrementFloor(db_->auto_increment_state());
      temp_db_->SetLogicalTime(db_->logical_time());
    }
  } else {
    // Selective CoW staging (§4.4): stage only the tables the replay will
    // write or consult (plus tables the human-decision rules read), as
    // O(1) copy-on-write clones. Anything a replayed query unexpectedly
    // touches beyond that faults in lazily through the read fallback.
    std::set<std::string> staged(affected.begin(), affected.end());
    for (const auto& [fn, cond] : parsed_rules_) {
      (void)fn;
      if (auto rw = analyzer->AnalyzeStatement(*cond, nullptr); rw.ok()) {
        staged.insert(rw->read_tables.begin(), rw->read_tables.end());
      }
    }
    std::vector<std::string> staged_list(staged.begin(), staged.end());
    if (options_.db_mutex) {
      // Shared: concurrent analyses stage simultaneously; only committing
      // writers (and the adoption swap) hold the exclusive side.
      std::shared_lock<std::shared_mutex> g(*options_.db_mutex);
      temp_db_ = db_->CloneTables(staged_list);
    } else {
      temp_db_ = db_->CloneTables(staged_list);
    }
    temp_db_->SetReadFallback(db_, options_.db_mutex);
    // Query-selective rollback (Appendix E): undo exactly the replayed
    // commits (plus the removed/changed target). Cell-independent commits
    // of the same tables keep their effects. On CoW clones this pays only
    // for the journal suffix and the row pages it actually restores.
    std::set<uint64_t> undo_commits(plan.replay_indices.begin(),
                                    plan.replay_indices.end());
    if (op.kind != RetroOp::Kind::kAdd) undo_commits.insert(op.index);
    std::vector<std::string> rollback_tables(plan.mutated_tables.begin(),
                                             plan.mutated_tables.end());
    temp_db_->RollbackCommitsInTables(undo_commits, rollback_tables);
  }
  stats.rollback_seconds = rollback_watch.ElapsedSeconds();
  UV_FAILPOINT("replay.stage.post");
  {
    static obs::Histogram* const h_rollback =
        obs::Registry::Global().histogram("uv.replay.phase.rollback_us");
    h_rollback->Record(rollback_watch.ElapsedMicros());
  }
  end_phase("stage", rollback_watch.ElapsedMicros());

  // Hash-jumper timeline: only consulted (and only built) when the
  // Hash-jumper is on; cached across Execute() calls keyed by the history
  // epoch.
  const HashTimeline* timeline =
      hash_jumper_on ? EnsureTimeline() : nullptr;

  // --- 3. Replay ----------------------------------------------------------
  phase_span.emplace("replay.replay");
  Stopwatch replay_watch;
  std::vector<Slot> slots;
  if (replay_target) slots.push_back(Slot{true, op.index});
  for (uint64_t idx : plan.replay_indices) slots.push_back(Slot{false, idx});

  // The paper overlaps the round trips of independent conflict chains
  // (§4.4). That overlap is modeled, not executed: with Options::parallel
  // only the conflict DAG's critical path is charged RTT below.
  stats.critical_path = slots.size();
  if (options_.parallel) {
    std::vector<const QueryRW*> ordered;
    ordered.reserve(slots.size());
    for (const auto& slot : slots) {
      ordered.push_back(slot.is_new ? &target_rw
                                    : &analysis[slot.log_index - 1]);
    }
    stats.critical_path = ConflictCriticalPath(ordered);
  }

  // Hash-hit test at original commit index `idx` (§4.5): every mutated
  // table's replayed hash equals its original-timeline hash.
  auto hashes_match_at = [&](uint64_t idx) {
    static obs::Counter* const probes =
        obs::Registry::Global().counter("uv.hashjumper.probes");
    static obs::Counter* const hits =
        obs::Registry::Global().counter("uv.hashjumper.hits");
    static obs::Counter* const misses =
        obs::Registry::Global().counter("uv.hashjumper.misses");
    probes->Inc();
    obs::TraceSpan span("hashjumper.probe", {{"index", idx}});
    bool match = [&] {
      for (const auto& t : plan.mutated_tables) {
        const sql::Table* table = temp_db_->FindTable(t);
        if (!table) return false;
        const Digest256* original = timeline->HashAt(t, idx);
        // No logged digest for this table at-or-before idx means the
        // original timeline's state here is simply unknown — force a miss.
        // (An earlier revision fell back to comparing against the staged,
        // selectively rolled-back τ-1 state; that state already excludes
        // the retroactive target's writes, so the fallback could declare
        // convergence the original timeline never reached — a false hit
        // that silently skipped adoption. The differential oracle caught
        // it; see DESIGN.md §9.)
        if (!original) return false;
        const Digest256& replayed = table->table_hash().value();
        if (!(replayed == *original)) return false;
      }
      return true;
    }();
    (match ? hits : misses)->Inc();
    return match;
  };

  Status replay_status = Status::OK();
  bool hash_jumped = false;
  bool hash_verified = false;
  uint64_t jump_index = 0;
  size_t executed = 0;

  // §4.5 literal-comparison option: materialize the original timeline's
  // table at `idx` from a cloned journal and compare row multisets.
  auto literal_hit_check = [&](uint64_t idx) {
    static obs::Counter* const verifies =
        obs::Registry::Global().counter("uv.hashjumper.literal_verifies");
    verifies->Inc();
    obs::TraceSpan span("hashjumper.literal_verify", {{"index", idx}});
    for (const auto& t : plan.mutated_tables) {
      const sql::Table* replayed = temp_db_->FindTable(t);
      if (!replayed) return false;
      // CoW clone of the live table (O(1) instead of a per-probe deep
      // copy); the rollback below materializes only the pages it touches.
      // Shared lock across lookup + clone: committing writers hold the
      // exclusive side while mutating.
      std::unique_ptr<sql::Table> original;
      if (options_.db_mutex) {
        std::shared_lock<std::shared_mutex> g(*options_.db_mutex);
        const sql::Table* live = db_->FindTable(t);
        if (!live) return false;
        original = live->Clone();
      } else {
        const sql::Table* live = db_->FindTable(t);
        if (!live) return false;
        original = live->Clone();
      }
      original->RollbackToIndex(idx);
      std::multiset<std::string> a, b;
      replayed->Scan([&](sql::RowId, const sql::Row& row) {
        a.insert(sql::EncodeRow(row));
        return true;
      });
      original->Scan([&](sql::RowId, const sql::Row& row) {
        b.insert(sql::EncodeRow(row));
        return true;
      });
      if (a != b) return false;
    }
    return true;
  };

  // Slots run inline, in commit order. A crash failpoint simply unwinds to
  // the caller.
  uint64_t next_commit = history_end + 1;
  for (const Slot& slot : slots) {
    {
      obs::TraceSpan slot_span(
          "replay.slot",
          {{"log_index", slot.is_new ? op.index : slot.log_index},
           {"new", slot.is_new ? 1 : 0}});
      replay_status = ExecuteSlot(temp_db_.get(), slot, op, next_commit++);
    }
    ++executed;
    if (!replay_status.ok()) break;
    if (hash_jumper_on && !slot.is_new && hashes_match_at(slot.log_index)) {
      if (options_.verify_hash_hits) {
        if (!literal_hit_check(slot.log_index)) continue;
        hash_verified = true;
      }
      hash_jumped = true;
      jump_index = slot.log_index;
      break;
    }
  }
  stats.replay_seconds = replay_watch.ElapsedSeconds();
  {
    static obs::Histogram* const h_replay =
        obs::Registry::Global().histogram("uv.replay.phase.replay_us");
    h_replay->Record(replay_watch.ElapsedMicros());
  }
  end_phase("replay", replay_watch.ElapsedMicros());
  if (!replay_status.ok() && explain_on &&
      ClassifyReplayError(replay_status) == ReplayErrorClass::kFatal) {
    // Fatal replay error: leave a post-mortem artifact before unwinding.
    ApplyLayerDeltas(layer_base, &report);
    obs::FlightRecorder::Global().Update(flight_token, report,
                                         /*completed=*/false);
    obs::FlightRecorder::Global().NoteCrash("fatal replay error: " +
                                            replay_status.ToString());
  }
  UV_RETURN_NOT_OK(replay_status);
  // Charge round trips for what actually ran: the Hash-jumper cuts the
  // tail off (§4.5). In parallel mode only the conflict-DAG critical path
  // serializes round trips.
  stats.replayed = executed + (stats.replayed - slots.size());
  stats.virtual_rtt_micros =
      options_.rtt_micros_per_query *
      (options_.parallel ? std::min(stats.critical_path, executed)
                         : executed);

  stats.suppressed = suppressed_;
  {
    static obs::Counter* const c_executed =
        obs::Registry::Global().counter("uv.replay.slots.executed");
    static obs::Counter* const c_suppressed =
        obs::Registry::Global().counter("uv.replay.suppressed");
    c_executed->Add(executed);
    c_suppressed->Add(stats.suppressed);
  }
  stats.hash_jump = hash_jumped;
  stats.hash_jump_index = jump_index;
  stats.hash_hit_verified = hash_verified;
  // Owned bytes: what staging actually allocated. CoW state still shared
  // with the live database counts as pointers, so workloads touching a
  // minority of tables report a correspondingly small footprint.
  stats.temp_db_bytes = temp_db_->ApproxOwnedBytes();

  // --- 4. Two-phase atomic publish (DESIGN.md §11) -------------------------
  // Phase one: durable, fsynced commit marker — the commit point. Phase
  // two: the one-step swap of staged tables into the live database. A
  // crash before the marker recovers to the original timeline; a crash
  // anywhere after it recovers to the fully rewritten one; no crash point
  // lands between.
  phase_span.emplace("replay.adopt");
  Stopwatch publish_watch;
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.publish"));
  if (options_.publish) {
    // Exclusive from the epoch-conflict check through the swap: no commit
    // can slip in between the validation and the adoption it validates.
    std::unique_lock<std::shared_mutex> publish_lock;
    if (options_.db_mutex) {
      publish_lock = std::unique_lock<std::shared_mutex>(*options_.db_mutex);
    }
    if (options_.snapshot_epoch && log_->epoch() != *options_.snapshot_epoch) {
      // A writer committed while we replayed against the pinned history:
      // the alternate universe no longer extends the live one, and
      // adopting it would silently erase those commits. First committer
      // wins; the caller re-snapshots and retries.
      static obs::Counter* const conflicts =
          obs::Registry::Global().counter("uv.whatif.publish.conflict");
      conflicts->Inc();
      return Status::Aborted(
          "history advanced during what-if replay; re-run against a fresh "
          "snapshot");
    }
    UV_RETURN_NOT_OK(PublishCommitMarker(op));
    if (hash_jumped) {
      // A hash-hit proves the *rows* reconverged with the original
      // timeline; the AUTO_INCREMENT counters are not part of the table
      // hash. Ids the alternate universe allocated and then freed (insert
      // later deleted) still advanced its counter, so raise the live
      // watermarks to the temporary database's — max() is exact: from the
      // jump point on, both universes replay identical recorded ids.
      // (Found by the differential oracle; see DESIGN.md §9.)
      db_->SeedAutoIncrementFloor(temp_db_->auto_increment_state());
    } else {
      std::vector<std::string> mutated(plan.mutated_tables.begin(),
                                       plan.mutated_tables.end());
      UV_RETURN_NOT_OK(db_->AdoptTables(*temp_db_, mutated));
      // Retroactive DDL (dropped CREATE VIEW/TRIGGER, say) replays into
      // the temporary catalog; AdoptTables moves row data only.
      db_->AdoptCatalog(*temp_db_);
    }
    // The live database now holds the alternate universe; make the log
    // agree before anything can replay from it (still exclusive here).
    RewritePublishedLog(op);
    if (options_.rewrite_log != nullptr) {
      // Selective replay journals its slots at post-horizon commit
      // indexes (per-statement abort needs a clean journal top), so the
      // adopted tables' journals neither match the rewritten log's
      // indexing nor stay clear of the indexes the next commits will
      // take. Reset them: retroactive targets at or below the publish
      // horizon fall back to the rebuild-from-log path — now correct,
      // since the log describes the published history — and post-publish
      // traffic journals normally. A change leaves every other table's
      // journal valid; an add/remove renumbers the whole suffix, so every
      // journal's commit indexing goes stale.
      const uint64_t mark = options_.rewrite_log->last_index() + 1;
      if (op.kind == RetroOp::Kind::kChange) {
        std::vector<std::string> adopted(plan.mutated_tables.begin(),
                                         plan.mutated_tables.end());
        db_->ResetJournals(adopted, mark);
      } else {
        db_->ResetJournals({}, mark);
      }
    }
    if (options_.on_published) options_.on_published(op);
  }
  // Past the commit point AND the swap: an error injected here surfaces to
  // the caller, but the what-if is already durably committed.
  UV_FAILPOINT("whatif.publish.post_swap");
  phase_span.reset();
  stats.total_seconds = total_watch.ElapsedSeconds();
  {
    static obs::Histogram* const h_total =
        obs::Registry::Global().histogram("uv.replay.phase.total_us");
    h_total->Record(total_watch.ElapsedMicros());
  }
  stats.obs = obs::Registry::Global().Collect();
  if (explain_on) {
    report.replayed = stats.replayed;
    report.skipped = stats.skipped;
    report.hash_jump = hash_jumped;
    report.hash_jump_index = jump_index;
    if (hash_jumped) {
      // Plan members past the convergence point never executed; the digest
      // that justified the jump is the evidence.
      std::string digest_hex;
      if (timeline != nullptr) {
        for (const auto& t : plan.mutated_tables) {
          if (const Digest256* d = timeline->HashAt(t, jump_index)) {
            digest_hex = d->ToHex().substr(0, 16);
            break;
          }
        }
      }
      size_t jump_skipped = 0;
      for (size_t j = 0; j < plan.exclusions.size(); ++j) {
        uint64_t idx = plan.exclusions_base + j;
        if (plan.exclusions[j] != PlanExclusion::kMember ||
            idx <= jump_index) {
          continue;
        }
        ++jump_skipped;
        if (explain_full) {
          obs::TxnExplain& te = report.txns[(replay_target ? 1 : 0) + j];
          te.verdict = obs::TxnVerdict::kHashJumpSkip;
          te.evidence =
              "unexecuted after hash-jump: mutated-table digests matched "
              "the original timeline";
          te.digest = digest_hex;
        }
      }
      report.verdict_counts[size_t(obs::TxnVerdict::kReplayed)] -=
          jump_skipped;
      report.verdict_counts[size_t(obs::TxnVerdict::kHashJumpSkip)] +=
          jump_skipped;
    }
    end_phase("publish", publish_watch.ElapsedMicros());
    report.staged_bytes = stats.temp_db_bytes;
    ApplyLayerDeltas(layer_base, &report);
    TallyVerdictMetrics(report);
    obs::FlightRecorder::Global().Update(flight_token, report,
                                         /*completed=*/true);
  }
  return stats;
}

void RetroactiveEngine::RewritePublishedLog(const RetroOp& op) {
  sql::QueryLog* log = options_.rewrite_log;
  if (log == nullptr) return;
  // mutable_entries() bumps the history epoch, so every epoch-keyed
  // derivative (snapshots, analyze-result cache, hash timelines)
  // invalidates on its next key check.
  std::deque<sql::LogEntry>& entries = log->mutable_entries();
  const size_t pos = size_t(op.index) - 1;  // deque position of τ
  switch (op.kind) {
    case RetroOp::Kind::kChange: {
      sql::LogEntry& target = entries[pos];
      target.sql = op.new_sql;
      target.stmt = op.new_stmt;
      // The nondeterminism the publish replay actually used: recorded
      // fresh for a live what-if, replayed from the marker in recovery.
      target.nondet = options_.new_stmt_nondet ? *options_.new_stmt_nondet
                                               : captured_new_nondet_;
      // The retroactive statement is raw SQL; the application-level
      // provenance of the statement it replaced died with it.
      target.app_txn.clear();
      target.app_args.clear();
      target.app_blackbox.clear();
      break;
    }
    case RetroOp::Kind::kAdd: {
      sql::LogEntry added;
      added.sql = op.new_sql;
      added.stmt = op.new_stmt;
      added.nondet = options_.new_stmt_nondet ? *options_.new_stmt_nondet
                                              : captured_new_nondet_;
      // Slots between τ-1 and the old τ: reuse the preceding commit's
      // logical time so timestamps stay monotone.
      added.timestamp = pos > 0 ? entries[pos - 1].timestamp : 0;
      entries.insert(entries.begin() + pos, std::move(added));
      break;
    }
    case RetroOp::Kind::kRemove:
      entries.erase(entries.begin() + pos);
      break;
  }
  // Renumber the suffix (add/remove shift it) and drop per-entry records
  // that described the dead universe: logged table hashes (the Hash-jumper
  // must never "converge" against pre-publish digests) and captured
  // procedure variables (row-wise analysis falls back to its conservative
  // widening). Statement text and nondeterminism records stay — the
  // publish replay itself re-injected exactly those, so they reproduce the
  // now-live history.
  for (size_t i = pos; i < entries.size(); ++i) {
    entries[i].index = i + 1;
    entries[i].table_hashes.clear();
    entries[i].captured_vars.clear();
  }
}

Status RetroactiveEngine::PublishCommitMarker(const RetroOp& op) {
  UV_FAILPOINT("whatif.publish.pre_marker");
  if (options_.wal != nullptr) {
    if (op.kind != RetroOp::Kind::kRemove && op.new_sql.empty()) {
      // The marker must carry a replayable statement: an op built without
      // its SQL text cannot be re-derived after a crash. Fail loudly
      // before any live mutation.
      return Status::InvalidArgument(
          "durable what-if commit requires RetroOp::new_sql");
    }
    sql::WhatIfMarker marker;
    marker.kind = static_cast<uint8_t>(op.kind);
    marker.index = op.index;
    marker.new_sql = op.new_sql;
    marker.new_stmt_nondet = options_.new_stmt_nondet
                                 ? *options_.new_stmt_nondet
                                 : captured_new_nondet_;
    UV_RETURN_NOT_OK(options_.wal->AppendWhatIfCommit(marker));
  }
  // Marker durable (or durability off): the commit point has passed.
  UV_FAILPOINT("whatif.publish.post_marker");
  return Status::OK();
}

}  // namespace ultraverse::core
