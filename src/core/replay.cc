#include "core/replay.h"

#include <algorithm>
#include <map>
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

namespace {

/// Original-timeline table hashes: for each table, the (commit index,
/// digest) sequence logged by the Hash-jumper logger (§4.5). Built from the
/// view per execution, so an in-place history rewrite (same length, new
/// digests) can never serve a dead timeline.
class HashTimeline {
 public:
  explicit HashTimeline(const std::vector<const sql::LogEntry*>& entries) {
    for (const sql::LogEntry* entry : entries) {
      for (const auto& [table, digest] : entry->table_hashes) {
        per_table_[table].emplace_back(entry->index, digest);
      }
    }
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
  std::map<std::string, std::vector<std::pair<uint64_t, Digest256>>>
      per_table_;
};

}  // namespace

RetroactiveEngine::RetroactiveEngine(
    sql::Database* db, std::shared_ptr<const HistorySnapshot> history,
    Options options)
    : db_(db), history_(std::move(history)), options_(std::move(options)) {
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

/// Shared lock on `mu` when the caller passed one, else no lock: an
/// analyze-only run reads an immutable snapshot.
std::shared_lock<std::shared_mutex> SharedLockIfSet(std::shared_mutex* mu) {
  return mu ? std::shared_lock<std::shared_mutex>(*mu)
            : std::shared_lock<std::shared_mutex>();
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

/// Cost model of the kAuto strategy rule (DESIGN.md §7.1), in µs per
/// entry. Measured on tpcc-chain with whatif_bench (seed 7, Release build,
/// 4 vCPUs, zero RTT): one suffix entry of full re-execution, one suffix
/// position of planning over both closure passes, and one replayed plan
/// member including its share of staging. Prefix entries are bulk
/// population statements whose cost varies with the data set; they are
/// charged at an upper bound of the five bundled workloads' measured
/// per-entry prefix cost (≤ 71 µs), so the prefix term errs toward
/// selective.
constexpr uint64_t kNaiveEntryUs = 48;
constexpr uint64_t kNaivePrefixEntryUs = 100;
constexpr uint64_t kPlanPositionUs = 20;
constexpr uint64_t kMemberUs = 65;

/// The kAuto decision at one closure checkpoint: `members` of the first
/// `scanned` suffix positions joined the column closure, so the plan is
/// projected to hold members/scanned of the suffix. Naive wins when
///   members/scanned > θ = (naive_est/suffix - kPlanPositionUs) / kMemberUs.
obs::StrategyChoice EstimateStrategy(uint64_t prefix, uint64_t suffix,
                                     uint64_t scanned, uint64_t members) {
  obs::StrategyChoice c;
  c.automatic = true;
  c.scanned = scanned;
  c.members = members;
  c.naive_est_us = kNaiveEntryUs * suffix + kNaivePrefixEntryUs * prefix;
  c.selective_est_us =
      kPlanPositionUs * suffix + kMemberUs * members * suffix / scanned;
  c.theta = (double(c.naive_est_us) / double(suffix) -
             double(kPlanPositionUs)) /
            double(kMemberUs);
  // The comparison itself in exact integers (both sides times `scanned`).
  const bool naive = kPlanPositionUs * suffix * scanned +
                         kMemberUs * members * suffix >
                     c.naive_est_us * scanned;
  c.kind = naive ? "naive" : "selective";
  return c;
}

void CountStrategy(const obs::StrategyChoice& choice) {
  static obs::Counter* const selective = obs::Registry::Global().counter(
      "uv.whatif.strategy{kind=\"selective\"}");
  static obs::Counter* const naive =
      obs::Registry::Global().counter("uv.whatif.strategy{kind=\"naive\"}");
  (choice.kind == "naive" ? naive : selective)->Inc();
}

/// The pipeline phases of a what-if, in order. The naive strategy has no
/// plan phase of its own; a plan abandoned under kAuto keeps its partial
/// scan as one.
enum class ReplayPhase { kPlan, kStage, kReplay, kPublish };

/// What one phase feeds: its PhaseBreakdown name, its trace span and its
/// wall-time histogram.
struct PhaseChannel {
  const char* name;
  const char* span;
  obs::Histogram* wall_us;
};

const PhaseChannel& ChannelOf(ReplayPhase phase) {
  static const std::array<PhaseChannel, 4> channels = [] {
    obs::Registry& reg = obs::Registry::Global();
    return std::array<PhaseChannel, 4>{{
        {"plan", "replay.plan", reg.histogram("uv.replay.phase.plan_us")},
        {"stage", "replay.stage", reg.histogram("uv.replay.phase.stage_us")},
        {"replay", "replay.replay",
         reg.histogram("uv.replay.phase.replay_us")},
        {"publish", "replay.publish",
         reg.histogram("uv.replay.phase.publish_us")},
    }};
  }();
  return channels[size_t(phase)];
}

}  // namespace

/// Decision provenance (DESIGN.md §13) and the only clock of a what-if
/// (DESIGN.md §8), shared by both strategies, so a what-if that abandons
/// its plan for full re-execution keeps one report: the partial plan
/// phase, then the naive phases. Phase() ends the running phase and starts
/// the next; every phase boundary is one wall and one CPU clock mark that
/// feeds the report's PhaseBreakdown, the phase's trace span and its
/// uv.replay.phase.<name>_us histogram, so the three agree and the phases
/// add up to the what-if's wall time.
class RetroactiveEngine::ReportRecorder {
 public:
  ReportRecorder(obs::ExplainLevel level, const RetroOp& op,
                 uint64_t suffix_size, obs::WhatIfReport* report)
      : level_(level), report_(report) {
    report->op = RetroOpName(op.kind);
    report->target_index = op.index;
    report->level = level;
    report->suffix_size = suffix_size;
    layer_base_ = LayerCounters::Get().Sample();
    flight_token_ = obs::FlightRecorder::Global().Begin(*report);
  }

  bool full() const { return level_ == obs::ExplainLevel::kFull; }

  /// Ends the running phase, if any, and starts `phase`.
  void Phase(ReplayPhase phase) {
    EndPhase();
    running_ = &ChannelOf(phase);
    span_.emplace(running_->span);
  }

  /// Fatal replay error: leave a post-mortem artifact before unwinding.
  void NoteFatal(const Status& st) {
    ApplyLayerDeltas(layer_base_, report_);
    obs::FlightRecorder::Global().Update(flight_token_, *report_,
                                         /*completed=*/false);
    obs::FlightRecorder::Global().NoteCrash("fatal replay error: " +
                                            st.ToString());
  }

  /// Ends the last phase, records the what-if's total wall time and
  /// completes the report.
  void Finish(uint64_t staged_bytes) {
    EndPhase();
    static obs::Histogram* const total_us =
        obs::Registry::Global().histogram("uv.replay.phase.total_us");
    total_us->Record(report_->WallMicros());
    report_->staged_bytes = staged_bytes;
    ApplyLayerDeltas(layer_base_, report_);
    TallyVerdictMetrics(*report_);
    obs::FlightRecorder::Global().Update(flight_token_, *report_,
                                         /*completed=*/true);
  }

 private:
  void EndPhase() {
    const uint64_t wall = NowMicros();
    const uint64_t cpu = obs::NowCpuMicros();
    if (running_ != nullptr) {
      span_.reset();
      const uint64_t wall_us = wall - mark_wall_;
      report_->phases.push_back(
          obs::PhaseBreakdown{running_->name, wall_us, cpu - mark_cpu_});
      running_->wall_us->Record(wall_us);
      obs::FlightRecorder::Global().Update(flight_token_, *report_,
                                           /*completed=*/false);
      running_ = nullptr;
    }
    mark_wall_ = wall;
    mark_cpu_ = cpu;
  }

  obs::ExplainLevel level_;
  obs::WhatIfReport* report_;
  uint64_t flight_token_ = 0;
  std::array<uint64_t, LayerCounters::kN> layer_base_{};
  const PhaseChannel* running_ = nullptr;
  std::optional<obs::TraceSpan> span_;
  uint64_t mark_wall_ = 0;
  uint64_t mark_cpu_ = 0;
};

bool RetroactiveEngine::UndoesTrimmedCommit(const RetroOp& op,
                                            const ReplayPlan& plan) const {
  uint64_t trimmed = 0;
  {
    // Shared lock: checkpoints advance trimmed_before() under the
    // exclusive side of the same mutex.
    auto lock = SharedLockIfSet(options_.db_mutex);
    for (const auto& t : plan.mutated_tables) {
      const sql::Table* table = db_->FindTable(t);
      if (table) trimmed = std::max(trimmed, table->trimmed_before());
    }
  }
  // The target (unless it is an add) and every member are rolled back;
  // members ascend, so the first is the oldest.
  if (op.kind != RetroOp::Kind::kAdd && op.index < trimmed) return true;
  return !plan.replay_indices.empty() && plan.replay_indices.front() < trimmed;
}

Status RetroactiveEngine::ExecuteFullNaive(const RetroOp& op, uint64_t horizon,
                                           ReportRecorder* rec,
                                           ReplayStats* out) {
  ReplayStats& stats = *out;
  stats.schema_rebuild = true;  // the whole universe is rebuilt from the log
  static obs::Counter* const naive_runs =
      obs::Registry::Global().counter("uv.oracle.naive.runs");
  static obs::Counter* const naive_prefix_entries =
      obs::Registry::Global().counter("uv.oracle.naive.prefix_entries");
  static obs::Counter* const naive_suffix_entries =
      obs::Registry::Global().counter("uv.oracle.naive.suffix_entries");
  naive_runs->Inc();
  obs::WhatIfReport& report = stats.report;
  report.strategy.kind = "naive";
  if (options_.mode == ReplayMode::kFullNaive) report.mode = "full-naive";

  rec->Phase(ReplayPhase::kStage);
  temp_db_ = std::make_unique<sql::Database>();
  temp_db_->set_exec_engine(db_->exec_engine());
  size_t executed = 0;

  // Settled prefix: recorded nondeterminism, no §6 rules.
  for (uint64_t idx = 1; idx < op.index; ++idx) {
    UV_RETURN_NOT_OK(ExecuteSlot(temp_db_.get(), Slot{false, idx}, op, idx,
                                 /*apply_rules=*/false));
  }
  naive_prefix_entries->Add(op.index - 1);

  // High-watermark AUTO_INCREMENT policy + logical-clock alignment: the
  // selective path stages a CoW clone of the *live* database, so its
  // counters and clock sit at the end of the original history. Seed the
  // rebuilt universe identically, so a retroactively added INSERT draws
  // the same fresh ids and NOW() values in every replay mode (DESIGN.md §9).
  {
    // Shared lock: live inserts mutate the auto-increment map concurrently.
    auto seed_lock = SharedLockIfSet(options_.db_mutex);
    temp_db_->SeedAutoIncrementFloor(db_->auto_increment_state());
    temp_db_->SetLogicalTime(db_->logical_time());
  }

  // Rewritten suffix: the retroactive op slots in at τ, the removed/changed
  // original drops out, everything else replays in order.
  rec->Phase(ReplayPhase::kReplay);
  const bool replay_target = op.kind != RetroOp::Kind::kRemove;
  uint64_t commit = op.index;
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
  naive_suffix_entries->Add(executed);
  stats.replayed = executed;
  stats.planned_replay = executed;
  stats.critical_path = executed;  // serial: no overlap to model
  stats.suppressed = suppressed_;
  stats.virtual_rtt_micros = options_.rtt_micros_per_query * executed;
  stats.temp_db_bytes = temp_db_->ApproxOwnedBytes();

  // Two-phase publish applies to the reference path too: recovery replays
  // committed markers through exactly this full-naive path. Analyze-only
  // executions stop here: the rebuilt universe in last_temp_db() IS the
  // result, and the live database stays untouched.
  rec->Phase(ReplayPhase::kPublish);
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.publish"));
  if (options_.publish) {
    // Adopt everything: tables present on either side (a table the
    // rewritten history never creates must disappear from the live
    // database) plus the object catalog. The journals of the adopted
    // tables follow the rewritten log's indexing, so they need no reset.
    std::unique_lock<std::shared_mutex> publish_lock;
    UV_RETURN_NOT_OK(BeginPublish(op, &publish_lock));
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
  report.replayed = stats.replayed;
  report.skipped = 0;
  // Full-naive replays everything: every suffix slot is a kReplayed
  // verdict except the vacated target slot of a remove/change.
  const uint64_t vacated = op.kind != RetroOp::Kind::kAdd ? op.index : 0;
  for (uint64_t idx = op.index; idx <= horizon; ++idx) {
    const obs::TxnVerdict v = idx == vacated ? obs::TxnVerdict::kRetroTarget
                                             : obs::TxnVerdict::kReplayed;
    report.Tally(v);
    if (!rec->full()) continue;
    obs::TxnExplain te;
    te.index = idx;
    te.verdict = v;
    te.evidence = idx == vacated ? "retroactive target slot"
                                 : "full re-execution (naive strategy)";
    report.txns.push_back(std::move(te));
  }
  if (replay_target && rec->full()) {
    obs::TxnExplain te;
    te.index = op.index;
    te.is_new = true;
    te.evidence = "retroactive statement executes at its insertion slot";
    report.txns.insert(report.txns.begin(), std::move(te));
  }
  rec->Finish(stats.temp_db_bytes);
  stats.obs = obs::Registry::Global().Collect();
  return Status::OK();
}

Result<ReplayStats> RetroactiveEngine::Execute(const RetroOp& op) {
  // The replay horizon is the view's entry count: queries committed after
  // the view was taken belong to the next what-if. Everything below reads
  // history through the view only — never through the live log, which
  // concurrent writers keep appending to and publishes rewrite in place.
  const uint64_t horizon = history_->entries->size();
  if (op.index == 0 || op.index > horizon + 1) {
    return Status::InvalidArgument("retroactive index out of range");
  }
  if (op.kind != RetroOp::Kind::kAdd && op.index > horizon) {
    return Status::InvalidArgument("no such query to remove/change");
  }
  const std::vector<QueryRW>& analysis = *history_->analysis;
  if (options_.mode != ReplayMode::kFullNaive && analysis.size() < horizon) {
    return Status::InvalidArgument("analysis does not cover the history");
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

  ReplayStats stats;
  stats.history_size = horizon;
  stats.suffix_size = horizon >= op.index ? horizon - op.index + 1 : 0;
  obs::WhatIfReport& report = stats.report;
  obs::TraceSpan op_span("replay.execute", {{"op", RetroOpName(op.kind)},
                                            {"index", op.index},
                                            {"history", horizon}});
  // --- Decision-provenance report (DESIGN.md §13) --------------------------
  // Assembled alongside the analysis; the flight recorder holds an
  // in-flight copy from the first phase on, so a crash anywhere below
  // leaves this very report as the newest ring entry. Its phase spans
  // nest under replay.execute.
  ReportRecorder rec(options_.explain, op, stats.suffix_size, &report);

  if (options_.mode == ReplayMode::kFullNaive) {
    // Ground-truth reference path: no dependency analysis, no staging
    // tricks, no Hash-jumper — just the rewritten history, start to end.
    UV_RETURN_NOT_OK(ExecuteFullNaive(op, horizon, &rec, &stats));
    return stats;
  }

  // --- 1. Dependency analysis / replay plan ------------------------------
  rec.Phase(ReplayPhase::kPlan);
  // The new statement and the §6 rule conditions are analyzed against a
  // private copy of the view's analyzer: analysis learns alias and merge
  // state that must not leak into the shared view. Copied only when there
  // is something to analyze.
  std::optional<QueryAnalyzer> analyzer;
  if (op.kind != RetroOp::Kind::kRemove || !parsed_rules_.empty()) {
    if (history_->analyzer == nullptr) {
      return Status::InvalidArgument("history view carries no analyzer");
    }
    analyzer.emplace(*history_->analyzer);
  }
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
  deps.static_footprints = history_->footprints.get();
  deps.record_exclusions = true;
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
  // kAuto (DESIGN.md §7.1): at each closure checkpoint, estimate whether
  // finishing selectively or re-executing everything is cheaper. Forced
  // members keep the selective path: that gate checks selective verdicts.
  obs::StrategyChoice& strategy = report.strategy;
  if (options_.mode == ReplayMode::kAuto && forced_members.empty()) {
    strategy.automatic = true;
    deps.checkpoint = [&](size_t scanned, size_t members) {
      strategy = EstimateStrategy(op.index - 1, stats.suffix_size, scanned,
                                  members);
      return strategy.kind == "naive";
    };
  }
  ReplayPlan plan = ComputeReplayPlan(
      analysis, op.index, target_rw,
      /*target_occupies_slot=*/op.kind != RetroOp::Kind::kAdd, deps);
  // Journal rollback cannot stage DDL, nor undo a commit behind a
  // checkpoint's trim horizon (§5 rollback option (iii)). Such a plan is
  // built naively: the plan, not the cost rule, chose, so the report
  // carries no rule evidence.
  const bool journals_cannot_stage =
      !plan.abandoned &&
      (plan.needs_schema_rebuild || UndoesTrimmedCommit(op, plan));
  if (journals_cannot_stage) strategy = obs::StrategyChoice{};
  if (strategy.automatic) CountStrategy(strategy);
  if (plan.abandoned || journals_cannot_stage) {
    // Either way the plan phase keeps its (partial) scan, and the universe
    // is the rewritten history re-executed in full.
    UV_RETURN_NOT_OK(ExecuteFullNaive(op, horizon, &rec, &stats));
    return stats;
  }
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
  // No catalog mutation reaches this path (a DDL plan re-executed naively
  // above), and the Hash-jumper relies on that: per-table row digests are
  // blind to the catalog, so removing a CREATE INDEX would "hit" at once
  // and skip the adoption that drops the index (DESIGN.md §9).
  // Analyze-only executions force it off: a jump proves the replayed state
  // reconverged with the live timeline and leaves the temporary database
  // frozen mid-history — correct when adoption is then skipped, but an
  // analyze-only caller reads the temporary database AS the result, so it
  // must always be driven to the horizon.
  const bool hash_jumper_on = options_.hash_jumper && options_.publish;
  {
    static obs::Counter* const planned =
        obs::Registry::Global().counter("uv.replay.slots.planned");
    static obs::Counter* const skipped =
        obs::Registry::Global().counter("uv.replay.slots.skipped");
    planned->Add(stats.planned_replay);
    skipped->Add(stats.skipped);
  }
  for (PlanExclusion e : plan.exclusions) report.Tally(VerdictFor(e));
  if (rec.full()) {
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
    // Predicate-tier verdicts carry the disjoint region pair.
    const std::vector<std::string> regions =
        PredicateEvidence(analysis, target_rw, plan);
    for (size_t j = 0; j < plan.exclusions.size(); ++j) {
      uint64_t idx = plan.exclusions_base + j;
      const QueryRW& rw = analysis[idx - 1];
      obs::TxnExplain te;
      te.index = idx;
      te.verdict = VerdictFor(plan.exclusions[j]);
      te.evidence = forced_members.count(idx)
                        ? "forced replay (ground-truth gate)"
                        : EvidenceFor(plan.exclusions[j]);
      if (!regions[j].empty()) te.evidence += ": " + regions[j];
      te.read_tables.assign(rw.read_tables.begin(), rw.read_tables.end());
      te.write_tables.assign(rw.write_tables.begin(), rw.write_tables.end());
      te.cluster_id = plan.cluster_ids[j];
      report.txns.push_back(std::move(te));
    }
  }

  // --- 2. Stage the temporary database ------------------------------------
  rec.Phase(ReplayPhase::kStage);
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.stage"));
  UV_FAILPOINT("replay.stage.pre");
  // Selective CoW staging (§4.4): stage only the tables the replay will
  // write or consult (plus tables the human-decision rules read), as
  // O(1) copy-on-write clones. Anything a replayed query unexpectedly
  // touches beyond that faults in lazily through the read fallback.
  std::set<std::string> staged(plan.mutated_tables.begin(),
                               plan.mutated_tables.end());
  staged.insert(plan.consulted_tables.begin(), plan.consulted_tables.end());
  for (const auto& [fn, cond] : parsed_rules_) {
    (void)fn;
    if (auto rw = analyzer->AnalyzeStatement(*cond, nullptr); rw.ok()) {
      staged.insert(rw->read_tables.begin(), rw->read_tables.end());
    }
  }
  std::vector<std::string> staged_list(staged.begin(), staged.end());
  {
    // Shared: concurrent analyses stage simultaneously; only committing
    // writers (and the adoption swap) hold the exclusive side.
    auto stage_lock = SharedLockIfSet(options_.db_mutex);
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
  UV_FAILPOINT("replay.stage.post");

  // Hash-jumper timeline: only consulted (and only built) when the
  // Hash-jumper is on.
  std::optional<HashTimeline> timeline;
  if (hash_jumper_on) timeline.emplace(*history_->entries);

  // --- 3. Replay ----------------------------------------------------------
  rec.Phase(ReplayPhase::kReplay);
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
        // A table that keeps no digest cannot prove convergence: a miss.
        const TableHash* replayed = table->table_hash();
        if (!replayed || !(replayed->value() == *original)) return false;
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
      {
        auto live_lock = SharedLockIfSet(options_.db_mutex);
        const sql::Table* live = db_->FindTable(t);
        if (!live) return false;
        original = live->Clone();
      }
      original->SetHashing(false);  // rows are compared, not digests
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
  uint64_t next_commit = horizon + 1;
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
  if (!replay_status.ok() &&
      ClassifyReplayError(replay_status) == ReplayErrorClass::kFatal) {
    rec.NoteFatal(replay_status);
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
  rec.Phase(ReplayPhase::kPublish);
  UV_RETURN_NOT_OK(CheckCancel(options_.cancel, "replay.publish"));
  if (options_.publish) {
    std::unique_lock<std::shared_mutex> publish_lock;
    UV_RETURN_NOT_OK(BeginPublish(op, &publish_lock));
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
      // horizon re-execute naively — correct, since the log describes the
      // published history — and post-publish traffic journals normally.
      // A change leaves every other table's journal valid; an add/remove
      // renumbers the whole suffix, so every journal's commit indexing
      // goes stale.
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
  report.replayed = stats.replayed;
  report.skipped = stats.skipped;
  report.hash_jump = hash_jumped;
  report.hash_jump_index = jump_index;
  if (hash_jumped) {
    // Plan members past the convergence point never executed; the digest
    // that justified the jump is the evidence.
    std::string digest_hex;
    if (timeline) {
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
      if (plan.exclusions[j] != PlanExclusion::kMember || idx <= jump_index) {
        continue;
      }
      ++jump_skipped;
      if (rec.full()) {
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
  rec.Finish(stats.temp_db_bytes);
  stats.obs = obs::Registry::Global().Collect();
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

Status RetroactiveEngine::BeginPublish(
    const RetroOp& op, std::unique_lock<std::shared_mutex>* lock) {
  // Exclusive from the epoch-conflict check through the caller's swap: no
  // commit can slip in between the validation and the adoption it
  // validates.
  if (options_.db_mutex) {
    *lock = std::unique_lock<std::shared_mutex>(*options_.db_mutex);
  }
  if (options_.rewrite_log != nullptr &&
      options_.rewrite_log->epoch() != history_->epoch) {
    // A writer committed while we replayed against the view: the alternate
    // universe no longer extends the live history, and adopting it would
    // silently erase those commits. First committer wins; the caller
    // re-snapshots and retries.
    static obs::Counter* const conflicts =
        obs::Registry::Global().counter("uv.whatif.publish.conflict");
    conflicts->Inc();
    return Status::Aborted(
        "history advanced during what-if replay; re-run against a fresh "
        "snapshot");
  }
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
