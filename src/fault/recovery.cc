#include "fault/recovery.h"

#include <utility>
#include <vector>

#include "core/replay.h"
#include "obs/metrics.h"
#include "sqldb/parser.h"
#include "sqldb/wal/wal.h"
#include "util/stopwatch.h"

namespace ultraverse::fault {

namespace {

/// Re-applies one durable what-if commit against the recovered universe.
/// The marker's retroactive statement replays with the nondeterminism the
/// original run recorded, and the replay itself runs full-naive — correct
/// by the differential-oracle invariant (selective ≡ full-naive, DESIGN.md
/// §9) and free of any dependency on analyzer configuration.
Status ApplyMarker(const sql::WhatIfMarker& marker, sql::Database* db,
                   sql::QueryLog* log) {
  core::RetroOp op;
  op.kind = static_cast<core::RetroOp::Kind>(marker.kind);
  op.index = marker.index;
  if (op.kind != core::RetroOp::Kind::kRemove) {
    UV_ASSIGN_OR_RETURN(op.new_stmt,
                        sql::Parser::ParseStatement(marker.new_sql));
    op.new_sql = marker.new_sql;
  }
  core::RetroactiveEngine::Options opts;
  opts.mode = core::ReplayMode::kFullNaive;
  opts.new_stmt_nondet = &marker.new_stmt_nondet;
  // Mirror the live facade: publish rewrites the log to the alternate
  // history, so the WAL entries and markers that follow this one replay
  // against exactly the history they originally saw (indices included —
  // an add/remove publish shifts every later commit index).
  opts.rewrite_log = log;
  // Full-naive replay never consults the per-entry analysis (only its
  // size, which bounds the replay horizon) or the analyzer.
  std::vector<core::QueryRW> analysis(log->size());
  core::RetroactiveEngine engine(db, log, opts);
  UV_ASSIGN_OR_RETURN(core::ReplayStats stats,
                      engine.Execute(op, analysis, /*analyzer=*/nullptr));
  (void)stats;
  return Status::OK();
}

}  // namespace

Result<RecoveryReport> RecoverInto(const std::string& path,
                                   sql::Database* db, sql::QueryLog* log) {
  RecoveryReport report;
  Stopwatch watch;
  // Scan + truncate only; the stream below decides what executes when.
  UV_ASSIGN_OR_RETURN(sql::WalRecovery scan,
                      sql::RecoverWal(path, /*truncate_file=*/true));
  report.truncated_bytes = scan.truncated_bytes;
  report.tail_torn = scan.tail_torn;

  log->mutable_entries().clear();
  // Replay the interleaved stream in commit order: a marker with
  // entries_before == k committed after entry k and before entry k+1, and
  // every later entry originally executed against the already-rewritten
  // universe — ordering is correctness, not cosmetics.
  size_t next_marker = 0;
  for (size_t k = 0; k <= scan.entries.size(); ++k) {
    while (next_marker < scan.markers.size() &&
           scan.markers[next_marker].entries_before == k) {
      UV_RETURN_NOT_OK(ApplyMarker(scan.markers[next_marker], db, log));
      ++report.markers_applied;
      ++next_marker;
    }
    if (k == scan.entries.size()) break;
    sql::LogEntry& entry = scan.entries[k];
    sql::ExecContext ctx;
    ctx.StartReplaying(&entry.nondet);
    uint64_t commit_index = log->size() + 1;
    Result<sql::ExecResult> r = db->Execute(*entry.stmt, commit_index, &ctx);
    if (!r.ok() &&
        core::ClassifyReplayError(r.status()) != core::ReplayErrorClass::kBenignSkip) {
      return r.status();
    }
    log->Append(std::move(entry));
    ++report.entries_replayed;
  }

  report.seconds = watch.ElapsedSeconds();
  static obs::Histogram* const recovery_us =
      obs::Registry::Global().histogram("uv.fault.recovery_us");
  recovery_us->Record(watch.ElapsedMicros());
  return report;
}

Result<RecoveredState> RecoverState(const std::string& path) {
  RecoveredState state;
  state.db = std::make_unique<sql::Database>();
  state.log = std::make_unique<sql::QueryLog>();
  UV_ASSIGN_OR_RETURN(state.report,
                      RecoverInto(path, state.db.get(), state.log.get()));
  return state;
}

}  // namespace ultraverse::fault
