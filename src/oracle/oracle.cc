#include "oracle/oracle.h"

#include <sstream>

#include "analysis/soundness.h"
#include "sqldb/parser.h"
#include "sqldb/vm/vm.h"

namespace ultraverse::oracle {

namespace {

const char* KindName(core::RetroOp::Kind kind) {
  switch (kind) {
    case core::RetroOp::Kind::kAdd: return "add";
    case core::RetroOp::Kind::kRemove: return "remove";
    case core::RetroOp::Kind::kChange: return "change";
  }
  return "remove";
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

Result<core::RetroOp> MakeOp(const WhatIfCase& c) {
  core::RetroOp op;
  op.kind = c.kind;
  op.index = c.index;
  if (c.kind != core::RetroOp::Kind::kRemove) {
    UV_ASSIGN_OR_RETURN(op.new_stmt, sql::Parser::ParseStatement(c.new_sql));
    op.new_sql = c.new_sql;
  }
  return op;
}

}  // namespace

std::string WhatIfCase::ToReproSql() const {
  std::ostringstream os;
  os << "-- ultraverse what-if repro (" << history.size() << " statements)\n";
  for (const auto& sql : history) os << sql << "\n";
  os << "-- whatif: " << KindName(kind) << " " << index;
  if (kind != core::RetroOp::Kind::kRemove) os << " " << new_sql;
  os << "\n";
  return os.str();
}

Result<WhatIfCase> WhatIfCase::ParseReproSql(const std::string& text) {
  WhatIfCase c;
  bool have_directive = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    line = Trim(line);
    if (line.empty()) continue;
    if (line.rfind("-- whatif:", 0) == 0) {
      std::istringstream dir(line.substr(10));
      std::string kind;
      uint64_t index = 0;
      if (!(dir >> kind >> index)) {
        return Status::InvalidArgument("malformed whatif directive: " + line);
      }
      if (kind == "remove") {
        c.kind = core::RetroOp::Kind::kRemove;
      } else if (kind == "add") {
        c.kind = core::RetroOp::Kind::kAdd;
      } else if (kind == "change") {
        c.kind = core::RetroOp::Kind::kChange;
      } else {
        return Status::InvalidArgument("unknown whatif kind: " + kind);
      }
      c.index = index;
      if (c.kind != core::RetroOp::Kind::kRemove) {
        std::string rest;
        std::getline(dir, rest);
        c.new_sql = Trim(rest);
        if (c.new_sql.empty()) {
          return Status::InvalidArgument("whatif " + kind + " needs SQL");
        }
      }
      have_directive = true;
      continue;
    }
    if (line.rfind("--", 0) == 0) continue;  // plain comment
    c.history.push_back(line);
  }
  if (!have_directive) {
    return Status::InvalidArgument("repro file has no '-- whatif:' directive");
  }
  uint64_t max_index =
      c.history.size() + (c.kind == core::RetroOp::Kind::kAdd ? 1 : 0);
  if (c.index == 0 || c.index > max_index) {
    return Status::InvalidArgument("whatif index out of range");
  }
  return c;
}

std::vector<ModeConfig> StandardModeConfigs() {
  std::vector<ModeConfig> configs;
  ModeConfig c;
  c.name = "deps";
  c.deps = true;
  configs.push_back(c);
  c.name = "deps+hashjump";
  c.hash_jumper = true;
  configs.push_back(c);
  c.name = "nodeps";
  c.deps = false;
  c.hash_jumper = false;
  configs.push_back(c);
  c.name = "nodeps+hashjump";
  c.hash_jumper = true;
  configs.push_back(c);
  c.name = "deps+tree";
  c.deps = true;
  c.hash_jumper = false;
  c.engine = sql::ExecEngine::kTree;
  configs.push_back(c);
  c.name = "auto";
  c.engine.reset();
  c.mode = core::ReplayMode::kAuto;
  configs.push_back(c);
  return configs;
}

Result<std::unique_ptr<Universe>> Universe::Build(
    const std::vector<std::string>& history) {
  return Build(history, std::nullopt);
}

Result<std::unique_ptr<Universe>> Universe::Build(
    const std::vector<std::string>& history,
    std::optional<sql::ExecEngine> engine) {
  std::unique_ptr<Universe> u(new Universe);
  u->db_ = std::make_unique<sql::Database>();
  if (engine) u->db_->set_exec_engine(*engine);
  u->db_->SetTableHashing(true);  // digests are logged below
  for (const auto& text : history) {
    UV_ASSIGN_OR_RETURN(sql::StatementPtr stmt,
                        sql::Parser::ParseStatement(text));
    uint64_t commit_index = u->log_.size() + 1;
    sql::LogEntry entry;
    entry.sql = text;
    entry.stmt = stmt;
    entry.timestamp = u->db_->NextTimestamp();
    sql::ExecContext ctx;
    ctx.StartRecording(&entry.nondet);
    Result<sql::ExecResult> res = u->db_->Execute(*stmt, commit_index, &ctx);
    if (!res.ok()) {
      return Status::InvalidArgument("history statement " +
                                     std::to_string(commit_index) +
                                     " failed: " + res.status().message() +
                                     " [" + text + "]");
    }
    // Eager hash logging (§4.5), same protocol as the facade: log a
    // table's digest whenever it changed since its last logged value.
    for (const auto& name : u->db_->TableNames()) {
      const sql::Table* t = u->db_->FindTable(name);
      if (!t) continue;
      const Digest256& h = t->table_hash()->value();
      auto it = u->last_hash_.find(name);
      if (it == u->last_hash_.end() || !(it->second == h)) {
        entry.table_hashes[name] = h;
        u->last_hash_[name] = h;
      }
    }
    u->log_.Append(std::move(entry));
  }
  return u;
}

Result<const std::vector<core::QueryRW>*> Universe::Analysis() {
  if (!analysis_ready_) {
    UV_ASSIGN_OR_RETURN(analysis_, analyzer_.AnalyzeLog(log_));
    analysis_ready_ = true;
  }
  return &analysis_;
}

Result<std::shared_ptr<const core::HistorySnapshot>> Universe::History() {
  UV_ASSIGN_OR_RETURN(const std::vector<core::QueryRW>* analysis, Analysis());
  return core::SnapshotOfLog(log_, *analysis, &analyzer_);
}

Status Universe::RunSelective(const core::RetroOp& op,
                              const ModeConfig& config,
                              core::ReplayStats* stats) {
  UV_ASSIGN_OR_RETURN(std::shared_ptr<const core::HistorySnapshot> history,
                      History());
  core::RetroactiveEngine::Options opts;
  opts.mode = config.mode;
  opts.deps.column_wise = config.deps;
  opts.deps.row_wise = config.deps;
  opts.hash_jumper = config.hash_jumper;
  opts.explain = config.explain;
  opts.forced_replay = config.forced_replay;
  if (config.engine) db_->set_exec_engine(*config.engine);
  core::RetroactiveEngine engine(db_.get(), std::move(history), opts);
  UV_ASSIGN_OR_RETURN(core::ReplayStats s, engine.Execute(op));
  if (stats) *stats = s;
  return Status::OK();
}

Status Universe::RunFullNaive(const core::RetroOp& op,
                              core::ReplayStats* stats) {
  // The selective side's view: an analyzer rejection fails both alike.
  UV_ASSIGN_OR_RETURN(std::shared_ptr<const core::HistorySnapshot> history,
                      History());
  core::RetroactiveEngine::Options opts;
  opts.mode = core::ReplayMode::kFullNaive;
  opts.parallel = false;
  core::RetroactiveEngine engine(db_.get(), std::move(history), opts);
  UV_ASSIGN_OR_RETURN(core::ReplayStats s, engine.Execute(op));
  if (stats) *stats = s;
  return Status::OK();
}

OracleResult CheckCase(const WhatIfCase& c, const ModeConfig& config,
                       const CorruptHook& corrupt) {
  OracleResult result;
  result.mode = config.name;
  Result<core::RetroOp> op = MakeOp(c);
  if (!op.ok()) {
    result.error = "bad retro op: " + op.status().message();
    return result;
  }
  // Two independent builds of the same history are bit-identical (fresh
  // databases, deterministic nondeterminism recording), so the selective
  // configuration and the naive reference start from equal universes.
  Result<std::unique_ptr<Universe>> selective = Universe::Build(c.history);
  if (!selective.ok()) {
    result.error = "build failed: " + selective.status().message();
    return result;
  }
  Result<std::unique_ptr<Universe>> reference = Universe::Build(c.history);
  if (!reference.ok()) {
    result.error = "build failed: " + reference.status().message();
    return result;
  }
  Status sel_st =
      (*selective)->RunSelective(*op, config, &result.selective_stats);
  Status ref_st = (*reference)->RunFullNaive(*op);
  if (!sel_st.ok() || !ref_st.ok()) {
    if (!sel_st.ok() && !ref_st.ok()) {
      // Both engines rejected the rewritten history — a what-if op can
      // legitimately produce one that trips a runtime limit (e.g. a
      // dormant trigger cycle the removed DELETE kept starved). Agreeing
      // on the rejection is agreement; record it for the report.
      result.ok = true;
      result.error = "";
      result.note = "both replays rejected: " + sel_st.message();
      return result;
    }
    // Exactly one side failed: one engine executes the rewritten history,
    // the other aborts. That asymmetry is a divergence (shrinkable and
    // reported like any state mismatch), not an infrastructure error.
    sql::StateDivergence d;
    d.kind = "status";
    d.detail = !sel_st.ok()
                   ? "selective[" + config.name + "] failed (" +
                         sel_st.message() + ") but full-naive succeeded"
                   : "full-naive failed (" + ref_st.message() +
                         ") but selective[" + config.name + "] succeeded";
    result.diff.divergences.push_back(std::move(d));
    result.ok = false;
    return result;
  }
  if (corrupt) corrupt((*selective)->db());
  result.diff = sql::DiffDatabases(*(*selective)->db(), *(*reference)->db(),
                                   "selective[" + config.name + "]",
                                   "full-naive");
  result.ok = result.diff.equal();
  return result;
}

OracleResult CheckCaseExecDiff(const WhatIfCase& c) {
  OracleResult result;
  result.mode = "exec-diff";
  // Fuzzed tables hold tens of rows, far below the production floor for
  // adaptive advisory indexing; lower it for the duration of this check so
  // the differential gate also exercises the advisory-probe paths.
  struct AdvisoryFloorGuard {
    size_t saved = sql::vm::AdvisoryIndexMinRows();
    AdvisoryFloorGuard() { sql::vm::SetAdvisoryIndexMinRows(4); }
    ~AdvisoryFloorGuard() { sql::vm::SetAdvisoryIndexMinRows(saved); }
  } advisory_floor;
  Result<core::RetroOp> op = MakeOp(c);
  if (!op.ok()) {
    result.error = "bad retro op: " + op.status().message();
    return result;
  }
  Result<std::unique_ptr<Universe>> tree =
      Universe::Build(c.history, sql::ExecEngine::kTree);
  Result<std::unique_ptr<Universe>> vm =
      Universe::Build(c.history, sql::ExecEngine::kVm);
  if (tree.ok() != vm.ok()) {
    sql::StateDivergence d;
    d.kind = "status";
    d.detail = tree.ok() ? "vm build failed (" + vm.status().message() +
                               ") but tree build succeeded"
                         : "tree build failed (" + tree.status().message() +
                               ") but vm build succeeded";
    result.diff.divergences.push_back(std::move(d));
    return result;
  }
  if (!tree.ok()) {
    if (tree.status().message() == vm.status().message()) {
      // The generator validates histories on a shadow (default-engine)
      // universe, so agreeing build failures should not happen — but if
      // they do, agreeing is still agreement.
      result.ok = true;
      result.note = "both engines rejected the history: " +
                    tree.status().message();
    } else {
      sql::StateDivergence d;
      d.kind = "status";
      d.detail = "build failed differently: tree(" + tree.status().message() +
                 ") vs vm(" + vm.status().message() + ")";
      result.diff.divergences.push_back(std::move(d));
    }
    return result;
  }
  result.diff = sql::DiffDatabases(*(*tree)->db(), *(*vm)->db(),
                                   "tree-built", "vm-built");
  if (!result.diff.equal()) return result;

  ModeConfig config;
  config.name = "exec-diff";
  Status tree_st = (*tree)->RunSelective(*op, config, &result.selective_stats);
  Status vm_st = (*vm)->RunSelective(*op, config);
  if (!tree_st.ok() || !vm_st.ok()) {
    if (!tree_st.ok() && !vm_st.ok()) {
      result.ok = true;
      result.note = "both engines rejected the rewritten history: " +
                    tree_st.message();
      return result;
    }
    sql::StateDivergence d;
    d.kind = "status";
    d.detail = !tree_st.ok() ? "tree replay failed (" + tree_st.message() +
                                   ") but vm replay succeeded"
                             : "vm replay failed (" + vm_st.message() +
                                   ") but tree replay succeeded";
    result.diff.divergences.push_back(std::move(d));
    return result;
  }
  result.diff = sql::DiffDatabases(*(*tree)->db(), *(*vm)->db(),
                                   "tree-replayed", "vm-replayed");
  result.ok = result.diff.equal();
  return result;
}

OracleResult CheckCaseAllModes(const WhatIfCase& c,
                               const std::vector<ModeConfig>& configs) {
  OracleResult last;
  last.ok = true;
  for (const auto& config : configs) {
    OracleResult r = CheckCase(c, config);
    if (!r.ok) return r;
    last = std::move(r);
  }
  return last;
}

namespace {

/// True when the candidate still shows a *divergence* (not a mere
/// build/replay error) under some config.
bool Reproduces(const WhatIfCase& c, const std::vector<ModeConfig>& configs) {
  for (const auto& config : configs) {
    OracleResult r = CheckCase(c, config);
    if (!r.ok && r.error.empty()) return true;
  }
  return false;
}

/// Removes 1-based history statement `j`, re-anchoring the retro index.
WhatIfCase RemoveStatement(const WhatIfCase& c, uint64_t j) {
  WhatIfCase out = c;
  out.history.erase(out.history.begin() + (j - 1));
  if (j < c.index) out.index = c.index - 1;
  return out;
}

}  // namespace

WhatIfCase ShrinkCaseIf(
    const WhatIfCase& c,
    const std::function<bool(const WhatIfCase&)>& still_fails) {
  WhatIfCase current = c;
  bool progress = true;
  while (progress) {
    progress = false;
    // End-first: later statements are the likeliest dead weight (nothing
    // depends on them), so dropping from the tail converges fastest.
    for (uint64_t j = current.history.size(); j >= 1; --j) {
      // The retroactive target statement itself must stay.
      if (current.kind != core::RetroOp::Kind::kAdd && j == current.index) {
        continue;
      }
      WhatIfCase cand = RemoveStatement(current, j);
      if (still_fails(cand)) {
        current = std::move(cand);
        progress = true;
        break;
      }
    }
  }
  return current;
}

WhatIfCase ShrinkCase(const WhatIfCase& c,
                      const std::vector<ModeConfig>& configs) {
  return ShrinkCaseIf(
      c, [&](const WhatIfCase& cand) { return Reproduces(cand, configs); });
}

Result<std::vector<std::string>> CheckStaticContainment(
    const std::vector<std::string>& history) {
  UV_ASSIGN_OR_RETURN(std::unique_ptr<Universe> u, Universe::Build(history));
  // A fresh analyzer (not the universe's own, which may already have
  // walked the log): the checker must observe every entry from the empty
  // registry state forward.
  core::QueryAnalyzer analyzer;
  analysis::SoundnessChecker checker(&analyzer);
  UV_RETURN_NOT_OK(analyzer.AnalyzeLog(u->log()).status());
  std::vector<std::string> out;
  out.reserve(checker.violations().size());
  for (const auto& v : checker.violations()) {
    out.push_back("statement #" + std::to_string(v.statement_ordinal + 1) +
                  " `" + v.sql + "`: " + v.detail);
  }
  return out;
}

namespace {

/// Last logged digest (hex prefix, 16 chars — the report's evidence width)
/// of any table at-or-before `index`, per the eager hash log carried in
/// LogEntry::table_hashes.
std::set<std::string> CarryForwardDigests(const sql::QueryLog& log,
                                          uint64_t index) {
  std::map<std::string, std::string> latest;
  for (uint64_t i = 1; i <= index && i <= log.size(); ++i) {
    for (const auto& [table, digest] : log.at(i).table_hashes) {
      latest[table] = digest.ToHex().substr(0, 16);
    }
  }
  std::set<std::string> out;
  for (const auto& [table, hex] : latest) out.insert(hex);
  return out;
}

}  // namespace

Result<std::vector<std::string>> CheckCaseExplain(const WhatIfCase& c) {
  std::vector<std::string> out;
  UV_ASSIGN_OR_RETURN(core::RetroOp op, MakeOp(c));

  // kAuto: a long history whose closure covers the suffix re-executes in
  // full, and its report (every suffix transaction replayed) must pass
  // the same bookkeeping checks. The forced re-runs below pin selective.
  ModeConfig base;
  base.name = "explain";
  base.deps = true;
  base.hash_jumper = false;
  base.explain = obs::ExplainLevel::kFull;
  base.mode = core::ReplayMode::kAuto;

  UV_ASSIGN_OR_RETURN(std::unique_ptr<Universe> sel,
                      Universe::Build(c.history));
  core::ReplayStats stats;
  Status sel_st = sel->RunSelective(op, base, &stats);
  UV_ASSIGN_OR_RETURN(std::unique_ptr<Universe> ref,
                      Universe::Build(c.history));
  Status ref_st = ref->RunFullNaive(op);
  if (!sel_st.ok() || !ref_st.ok()) {
    // Agreed rejection carries no report to validate; an asymmetric
    // failure is the divergence oracle's finding, not an explain breach.
    return out;
  }

  const obs::WhatIfReport& report = stats.report;

  // --- 1. Bookkeeping: totals, coverage, per-verdict invariants. ---------
  uint64_t total = 0;
  for (uint64_t n : report.verdict_counts) total += n;
  if (total != report.suffix_size) {
    out.push_back("verdict counts sum to " + std::to_string(total) +
                  " but the suffix holds " +
                  std::to_string(report.suffix_size) + " transactions");
  }
  if (report.replayed != stats.replayed) {
    out.push_back("report.replayed=" + std::to_string(report.replayed) +
                  " disagrees with ReplayStats.replayed=" +
                  std::to_string(stats.replayed));
  }
  UV_ASSIGN_OR_RETURN(const std::vector<core::QueryRW>* analysis,
                      sel->Analysis());
  std::set<uint64_t> seen;
  for (const obs::TxnExplain& te : report.txns) {
    if (te.is_new) continue;
    if (!seen.insert(te.index).second) {
      out.push_back("txn #" + std::to_string(te.index) +
                    " explained more than once");
    }
    if (te.index < c.index || te.index > c.history.size()) {
      out.push_back("txn #" + std::to_string(te.index) +
                    " explained but outside the suffix [" +
                    std::to_string(c.index) + ", " +
                    std::to_string(c.history.size()) + "]");
      continue;
    }
    if (te.verdict == obs::TxnVerdict::kPrunedReadOnly &&
        te.index <= analysis->size() &&
        !(*analysis)[te.index - 1].write_tables.empty()) {
      out.push_back("txn #" + std::to_string(te.index) +
                    " explained as pruned-read-only but its write set "
                    "names " +
                    *(*analysis)[te.index - 1].write_tables.begin());
    }
    if (te.verdict == obs::TxnVerdict::kHashJumpSkip && !report.hash_jump) {
      out.push_back("txn #" + std::to_string(te.index) +
                    " explained as hash-jump-skip but no jump happened");
    }
  }
  size_t expected = c.history.size() >= c.index
                        ? c.history.size() - c.index + 1
                        : 0;
  if (seen.size() != expected) {
    out.push_back("report explains " + std::to_string(seen.size()) +
                  " suffix transactions, expected " +
                  std::to_string(expected));
  }

  // --- 2. The selective state must match the full-naive reference. -------
  sql::StateDiff diff = sql::DiffDatabases(*sel->db(), *ref->db(),
                                           "selective[explain]",
                                           "full-naive");
  if (!diff.equal()) {
    out.push_back("selective final state diverges from full-naive: " +
                  diff.divergences.front().detail);
    // The per-txn counterfactuals below compare against a wrong baseline;
    // report the primary divergence and stop.
    return out;
  }

  // --- 3. Counterfactual soundness of pruned verdicts. -------------------
  // A sound prune reason means the transaction's replay is a no-op in the
  // alternate universe: forcing it back into the plan must reproduce the
  // identical final state. Spread-sample up to 16 pruned txns.
  std::vector<uint64_t> pruned;
  for (const obs::TxnExplain& te : report.txns) {
    if (te.is_new) continue;
    switch (te.verdict) {
      case obs::TxnVerdict::kPrunedStaticFootprint:
      case obs::TxnVerdict::kPrunedPredicateDisjoint:
      case obs::TxnVerdict::kPrunedColumnDisjoint:
      case obs::TxnVerdict::kPrunedReadOnly:
        pruned.push_back(te.index);
        break;
      default:
        break;
    }
  }
  const size_t kMaxForced = 16;
  size_t step = pruned.size() > kMaxForced ? pruned.size() / kMaxForced : 1;
  for (size_t i = 0; i < pruned.size(); i += step) {
    uint64_t q = pruned[i];
    ModeConfig forced = base;
    forced.explain = obs::ExplainLevel::kSummary;
    forced.forced_replay = {q};
    Result<std::unique_ptr<Universe>> fu = Universe::Build(c.history);
    if (!fu.ok()) return fu.status();
    Status fst = (*fu)->RunSelective(op, forced);
    if (!fst.ok()) {
      out.push_back("txn #" + std::to_string(q) +
                    " explained as pruned, but forcing it back into the "
                    "plan fails to replay: " +
                    fst.message());
      continue;
    }
    sql::StateDiff fdiff = sql::DiffDatabases(*(*fu)->db(), *sel->db(),
                                              "forced-replay", "pruned");
    if (!fdiff.equal()) {
      out.push_back("txn #" + std::to_string(q) +
                    " explained as pruned, but force-replaying it changes "
                    "the final state: " +
                    fdiff.divergences.front().detail);
    }
  }

  // --- 4. Hash-jump evidence. -------------------------------------------
  ModeConfig hj = base;
  hj.name = "explain+hashjump";
  hj.hash_jumper = true;
  UV_ASSIGN_OR_RETURN(std::unique_ptr<Universe> hju,
                      Universe::Build(c.history));
  core::ReplayStats hjstats;
  Status hj_st = hju->RunSelective(op, hj, &hjstats);
  if (hj_st.ok()) {
    const obs::WhatIfReport& hjr = hjstats.report;
    std::set<std::string> logged =
        hjr.hash_jump ? CarryForwardDigests(hju->log(), hjr.hash_jump_index)
                      : std::set<std::string>{};
    for (const obs::TxnExplain& te : hjr.txns) {
      if (te.verdict != obs::TxnVerdict::kHashJumpSkip) continue;
      if (!hjr.hash_jump) {
        out.push_back("hash-jump run: txn #" + std::to_string(te.index) +
                      " explained as hash-jump-skip without a jump");
        continue;
      }
      if (te.index <= hjr.hash_jump_index) {
        out.push_back("hash-jump run: txn #" + std::to_string(te.index) +
                      " explained as skipped but precedes the convergence "
                      "point #" +
                      std::to_string(hjr.hash_jump_index));
      }
      if (!te.digest.empty() && !logged.count(te.digest)) {
        out.push_back("hash-jump run: txn #" + std::to_string(te.index) +
                      " cites digest " + te.digest +
                      " which no logged table hash at-or-before #" +
                      std::to_string(hjr.hash_jump_index) + " matches");
      }
    }
    sql::StateDiff hjdiff = sql::DiffDatabases(*hju->db(), *sel->db(),
                                               "selective[explain+hashjump]",
                                               "selective[explain]");
    if (!hjdiff.equal()) {
      out.push_back("hash-jump run diverges from the plain selective run: " +
                    hjdiff.divergences.front().detail);
    }
  }
  return out;
}

}  // namespace ultraverse::oracle
