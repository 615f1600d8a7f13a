#include "fault/crash_sweep.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "fault/failpoint.h"
#include "fault/recovery.h"
#include "sqldb/parser.h"
#include "sqldb/state_diff.h"
#include "sqldb/wal/wal.h"
#include "util/stopwatch.h"

namespace ultraverse::fault {

namespace {

Result<core::RetroOp> MakeOp(const oracle::WhatIfCase& c) {
  core::RetroOp op;
  op.kind = c.kind;
  op.index = c.index;
  if (c.kind != core::RetroOp::Kind::kRemove) {
    UV_ASSIGN_OR_RETURN(op.new_stmt, sql::Parser::ParseStatement(c.new_sql));
    op.new_sql = c.new_sql;
  }
  return op;
}

struct HarnessOutcome {
  bool crashed = false;
  std::string crash_site;
  Status engine_status;  // when not crashed
};

/// One durable what-if run: build the case's universe, mirror its history
/// into a fresh WAL, then execute the selective replay with the WAL
/// attached. `arm` runs after setup and analysis, right before Execute —
/// so armed failpoints (and tracking) see only the replay path, never the
/// harness's own setup traffic. A kCrash firing unwinds to here; the WAL
/// buffer is abandoned un-synced, as process death would leave it.
Result<HarnessOutcome> RunOnce(const oracle::WhatIfCase& c,
                               const std::string& wal_path,
                               const std::function<void()>& arm) {
  UV_ASSIGN_OR_RETURN(std::unique_ptr<oracle::Universe> u,
                      oracle::Universe::Build(c.history));
  std::remove(wal_path.c_str());
  UV_ASSIGN_OR_RETURN(std::unique_ptr<sql::Wal> wal, sql::Wal::Open(wal_path));
  for (const auto& entry : u->log().entries()) {
    UV_RETURN_NOT_OK(wal->AppendEntry(entry));
  }
  UV_RETURN_NOT_OK(wal->Sync());
  UV_ASSIGN_OR_RETURN(const std::vector<core::QueryRW>* analysis,
                      u->Analysis());
  UV_ASSIGN_OR_RETURN(core::RetroOp op, MakeOp(c));

  core::RetroactiveEngine::Options opts;
  opts.mode = core::ReplayMode::kSelective;
  opts.wal = wal.get();
  core::RetroactiveEngine engine(u->db(), &u->log(), opts);

  if (arm) arm();
  HarnessOutcome out;
  try {
    Result<core::ReplayStats> r = engine.Execute(op, *analysis, u->analyzer());
    out.engine_status = r.ok() ? Status::OK() : r.status();
  } catch (const CrashException& e) {
    out.crashed = true;
    out.crash_site = e.site;
    wal->Abandon();
  }
  FailpointRegistry::Global().DisarmAll();
  return out;
}

struct CrashPointOutcome {
  bool diverged = false;
  bool committed = false;  // a commit marker survived to disk
  std::string detail;
};

/// Crash at (site, skip) during the case's durable replay, recover from
/// the WAL, and check the recovered universe against the pre/post
/// references. The on-disk marker decides which side MUST match: the
/// two-phase publish promises never-in-between.
Result<CrashPointOutcome> CheckCrashPoint(const oracle::WhatIfCase& c,
                                          const std::string& site,
                                          uint64_t skip,
                                          const std::string& wal_path) {
  CrashPointOutcome outcome;

  // Reference states: the untouched original timeline and the fully
  // rewritten one (full-naive ground truth, same as the oracle's
  // reference side). A rewritten history both engines reject has no post
  // state — recovery must then always land pre.
  UV_ASSIGN_OR_RETURN(std::unique_ptr<oracle::Universe> pre,
                      oracle::Universe::Build(c.history));
  UV_ASSIGN_OR_RETURN(std::unique_ptr<oracle::Universe> post,
                      oracle::Universe::Build(c.history));
  UV_ASSIGN_OR_RETURN(core::RetroOp post_op, MakeOp(c));
  bool have_post = post->RunFullNaive(post_op).ok();

  UV_ASSIGN_OR_RETURN(
      HarnessOutcome run,
      RunOnce(c, wal_path, [&]() {
        FailpointConfig config;
        config.action = FailAction::kCrash;
        config.skip_first = skip;
        config.max_fires = 1;
        FailpointRegistry::Global().Arm(site, config);
      }));

  Result<RecoveredState> recovered = RecoverState(wal_path);
  if (!recovered.ok()) {
    outcome.diverged = true;
    outcome.detail = "recovery failed after crash at " + site + ": " +
                     recovered.status().message();
    return outcome;
  }
  outcome.committed = recovered->report.markers_applied > 0;

  // Protocol invariant: an Execute() that returned success must have made
  // its commit marker durable first.
  if (!run.crashed && run.engine_status.ok() && !outcome.committed) {
    outcome.diverged = true;
    outcome.detail = "replay succeeded but no commit marker reached disk";
    return outcome;
  }
  if (outcome.committed && !have_post) {
    outcome.diverged = true;
    outcome.detail =
        "commit marker on disk but the rewritten history is rejected";
    return outcome;
  }

  const sql::Database& expected =
      outcome.committed ? *post->db() : *pre->db();
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, expected, "recovered",
                         outcome.committed ? "post-whatif" : "pre-whatif");
  if (!diff.equal()) {
    outcome.diverged = true;
    std::ostringstream os;
    os << "crash at " << site << " (skip " << skip << ", "
       << (run.crashed ? "crashed" : "completed") << ", recovered to "
       << (outcome.committed ? "post" : "pre") << " expected):\n"
       << diff.ToString();
    outcome.detail = os.str();
  }
  return outcome;
}

}  // namespace

Result<CrashSweepReport> RunCrashSweep(const CrashSweepOptions& options) {
  CrashSweepReport report;
  const std::string wal_path =
      options.wal_path.empty() ? "crash_sweep.wal" : options.wal_path;
  Stopwatch budget;
  auto out_of_budget = [&]() {
    return options.seconds > 0 && budget.ElapsedSeconds() >= options.seconds;
  };
  auto progress = [&](const std::string& msg) {
    if (options.progress) options.progress(msg);
  };

  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.DisarmAll();

  std::map<std::string, bool> seen_sites;
  for (uint64_t case_number = 0;
       (options.histories == 0 || case_number < options.histories) &&
       !out_of_budget();
       ++case_number) {
    oracle::WhatIfCase c = oracle::GenerateCase(options.seed, case_number);

    // Discovery: run the durable replay once with tracking on and nothing
    // armed, then read back which sites the path evaluated and how often.
    // Sites linger in the registry across cases, so reachability is the
    // per-run evaluation delta, not mere registration.
    std::map<std::string, uint64_t> evals_before;
    for (const std::string& site : registry.KnownSites()) {
      evals_before[site] = registry.Evaluations(site);
    }
    Result<HarnessOutcome> discovery = RunOnce(
        c, wal_path, [&]() { registry.SetTracking(true); });
    if (!discovery.ok()) {
      progress("case " + std::to_string(case_number) +
               ": discovery failed: " + discovery.status().message());
      continue;
    }
    ++report.cases_run;

    std::vector<std::pair<std::string, uint64_t>> crash_points;
    for (const std::string& site : registry.KnownSites()) {
      uint64_t before = 0;
      if (auto it = evals_before.find(site); it != evals_before.end()) {
        before = it->second;
      }
      uint64_t reached = registry.Evaluations(site) - before;
      if (reached == 0) continue;
      if (!seen_sites[site]) {
        seen_sites[site] = true;
        report.sites.push_back(site);
      }
      // Crash at the first evaluation always; for sites evaluated many
      // times (per-slot points) also crash mid-stream — the two ends of
      // the replay bracket the interesting marker/swap interleavings.
      crash_points.emplace_back(site, 0);
      if (reached > 1) crash_points.emplace_back(site, reached / 2);
    }

    for (const auto& [site, skip] : crash_points) {
      if (out_of_budget()) break;
      UV_ASSIGN_OR_RETURN(CrashPointOutcome outcome,
                          CheckCrashPoint(c, site, skip, wal_path));
      ++report.crash_points;
      if (!outcome.diverged) {
        ++(outcome.committed ? report.recoveries_post
                             : report.recoveries_pre);
        continue;
      }
      progress("case " + std::to_string(case_number) + ": DIVERGED at " +
               site + " skip " + std::to_string(skip));
      CrashDivergence divergence;
      divergence.case_number = case_number;
      divergence.site = site;
      divergence.skip = skip;
      divergence.detail = outcome.detail;
      divergence.shrunk = c;
      if (options.shrink) {
        divergence.shrunk = oracle::ShrinkCaseIf(
            c, [&](const oracle::WhatIfCase& candidate) {
              Result<CrashPointOutcome> r =
                  CheckCrashPoint(candidate, site, skip, wal_path);
              return r.ok() && r->diverged;
            });
        Result<CrashPointOutcome> final_run =
            CheckCrashPoint(divergence.shrunk, site, skip, wal_path);
        if (final_run.ok()) divergence.detail = final_run->detail;
      }
      report.divergences.push_back(std::move(divergence));
    }
    progress("case " + std::to_string(case_number) + ": " +
             std::to_string(crash_points.size()) + " crash points, " +
             std::to_string(report.divergences.size()) + " divergences");
  }

  std::remove(wal_path.c_str());
  return report;
}

}  // namespace ultraverse::fault
