// MVCC what-if suite (DESIGN.md §14): epoch-keyed snapshots, concurrent
// analyze-only what-ifs over shared snapshots, the (epoch, op) result
// cache, the optimistic publish protocol, one engine result over either
// kind of history view, and a shared VM plan cache poisoned across
// CloneTables clones by a same-width base ALTER.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.h"
#include "core/ultraverse.h"
#include "fault/failpoint.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "oracle/concurrent.h"
#include "oracle/oracle.h"
#include "sqldb/database.h"
#include "sqldb/exec_engine.h"
#include "sqldb/parser.h"

namespace ultraverse::core {
namespace {

// --- Plan-cache poisoning across clones --------------

// Two CoW clones taken at the same schema version share the base's plan
// cache. If a same-width base ALTER lands between their executions, the
// lazily-staged clone faults in the NEW layout — and must not memoize
// plans under the version both clones still carry, or the stale-layout
// clone hits a plan whose column ordinals belong to the other universe.
TEST(MvccPlanCacheTest, LazyFaultInAfterBaseAlterDoesNotPoisonSharedCache) {
  sql::Database base;
  base.set_exec_engine(sql::ExecEngine::kVm);
  uint64_t c = 0;
  auto exec = [&](sql::Database& db, const std::string& sql) {
    auto r = db.ExecuteSql(sql, ++c);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  exec(base, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)");
  exec(base, "INSERT INTO t (id, a, b) VALUES (1, 10, 20)");

  // Both clones copy the base's schema version; they share its plan cache.
  std::unique_ptr<sql::Database> stale = base.CloneTables({"t"});
  std::unique_ptr<sql::Database> lazy = base.CloneTables({});
  lazy->SetReadFallback(&base, nullptr);

  // Same-width layout change on the base: column `a` moves from ordinal 1
  // to ordinal 2. Width-based staleness checks cannot catch this.
  exec(base, "ALTER TABLE t DROP COLUMN a");
  exec(base, "ALTER TABLE t ADD COLUMN a INT");

  // The lazy clone faults in the post-ALTER layout and compiles the
  // statement first, populating the shared cache.
  exec(*lazy, "UPDATE t SET a = 5 WHERE id = 1");

  // The stale clone executes the same statement against the OLD layout.
  // A stale cache hit would write ordinal 2 — column b in this layout.
  exec(*stale, "UPDATE t SET a = 5 WHERE id = 1");
  auto r = stale->ExecuteSql("SELECT a, b FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5)
      << "update landed on the wrong column: poisoned plan";
  EXPECT_EQ(r->rows[0][1].AsInt(), 20)
      << "neighbour column clobbered: poisoned plan";
}

// The drift bump must not fire when the base did NOT change: fault-ins
// against an unchanged base keep the inherited version, so warm plans
// stay valid (the perf half of the fix).
TEST(MvccPlanCacheTest, FaultInWithoutBaseDriftKeepsVersion) {
  sql::Database base;
  base.set_exec_engine(sql::ExecEngine::kVm);
  uint64_t c = 0;
  ASSERT_TRUE(base.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                              ++c)
                  .ok());
  ASSERT_TRUE(
      base.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)", ++c).ok());
  std::unique_ptr<sql::Database> lazy = base.CloneTables({});
  lazy->SetReadFallback(&base, nullptr);
  const uint64_t inherited = lazy->schema_version();
  ASSERT_TRUE(
      lazy->ExecuteSql("UPDATE t SET v = 2 WHERE id = 1", ++c).ok());
  EXPECT_EQ(lazy->schema_version(), inherited)
      << "fault-in from an unchanged base must not invalidate warm plans";
}

// --- Shared read fallback (satellite 3) --------------------------------------

// Many staged clones fault in from one base concurrently while readers
// hold the base lock shared. Run under TSan this is the lock-discipline
// proof; under plain builds it is a correctness smoke.
TEST(MvccSharedFallbackTest, ConcurrentFaultInsFromSharedBase) {
  sql::Database base;
  uint64_t c = 0;
  ASSERT_TRUE(base.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                              ++c)
                  .ok());
  for (int i = 1; i <= 64; ++i) {
    ASSERT_TRUE(base.ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                                    std::to_string(i) + ", " +
                                    std::to_string(i) + ")",
                                ++c)
                    .ok());
  }
  std::shared_mutex base_mu;
  constexpr int kClones = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kClones; ++k) {
    threads.emplace_back([&, k] {
      std::unique_ptr<sql::Database> clone = base.CloneTables({});
      clone->SetReadFallback(&base, &base_mu);
      uint64_t local = 10000 + uint64_t(k) * 100;
      auto r = clone->ExecuteSql(
          "UPDATE t SET v = v + 1 WHERE id = " + std::to_string(k + 1),
          ++local);
      if (!r.ok()) ++failures;
      auto s = clone->ExecuteSql(
          "SELECT v FROM t WHERE id = " + std::to_string(k + 1), ++local);
      if (!s.ok() || s->rows.size() != 1 ||
          s->rows[0][0].AsInt() != k + 2) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The base saw only shared readers: nothing changed.
  auto r = base.ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

// A staged copy that undoes commits on another thread reads the pages and
// index set it shares with the base, copies them and then drops its
// reference. The base's next write sees itself as sole owner and writes in
// place. Nothing but the reference count orders the two threads here (the
// done flag is relaxed on purpose), so under TSan this reports a race
// unless the sole-owner check synchronizes with the dropped reference.
TEST(MvccSharedFallbackTest, DroppedStagedCopyOrdersBaseWriteInPlace) {
  sql::Database base;
  uint64_t c = 0;
  ASSERT_TRUE(base.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)",
                              ++c)
                  .ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(base.ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                                    std::to_string(i) + ", 0)",
                                ++c)
                    .ok());
  }
  ASSERT_TRUE(base.ExecuteSql("UPDATE t SET v = 9 WHERE id = 2", ++c).ok());
  const uint64_t undone = c;
  std::unique_ptr<sql::Database> staged = base.CloneTables({"t"});
  std::atomic<bool> dropped{false};
  std::thread sibling([&] {
    staged->RollbackCommitsInTables({undone}, {"t"});
    staged.reset();
    dropped.store(true, std::memory_order_relaxed);
  });
  while (!dropped.load(std::memory_order_relaxed)) std::this_thread::yield();
  ASSERT_TRUE(base.ExecuteSql("UPDATE t SET v = 5 WHERE id = 2", ++c).ok());
  sibling.join();
  auto r = base.ExecuteSql("SELECT v FROM t WHERE id = 2", ++c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
}

// --- Snapshots and the epoch ------------------------------------------------

TEST(MvccSnapshotTest, SnapshotReusedUntilEpochAdvances) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());

  auto s1 = uv.SnapshotHistory();
  ASSERT_TRUE(s1.ok());
  auto s2 = uv.SnapshotHistory();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->get(), s2->get()) << "same epoch must share one snapshot";

  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (2, 2)").ok());
  auto s3 = uv.SnapshotHistory();
  ASSERT_TRUE(s3.ok());
  EXPECT_NE(s3->get(), s1->get());
  EXPECT_GT((*s3)->epoch, (*s1)->epoch);
  EXPECT_EQ((*s3)->horizon, (*s1)->horizon + 1);
  // The old snapshot is frozen: its pinned view never sees the new commit.
  EXPECT_EQ((*s1)->entries->size(), (*s1)->horizon);
}

TEST(MvccSnapshotTest, AnalyzeOnlyLeavesLiveStateUntouched) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  const std::string before = uv.StateFingerprint();
  const uint64_t len_before = uv.log()->last_index();
  const uint64_t epoch_before = uv.history_epoch();

  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto a = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_FALSE(a->fingerprint.empty());
  EXPECT_NE(a->fingerprint, before)
      << "removing an effective update must change the universe";
  EXPECT_EQ(uv.StateFingerprint(), before);
  EXPECT_EQ(uv.log()->last_index(), len_before);
  EXPECT_EQ(uv.history_epoch(), epoch_before)
      << "analyze-only must not advance the epoch";
}

// Selective and full-naive agree at the same pinned snapshot — the
// single-threaded version of the concurrent oracle's invariant.
TEST(MvccSnapshotTest, SelectiveMatchesFullNaiveAtSameSnapshot) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                              std::to_string(i) + ", " +
                              std::to_string(i * 10) + ")")
                    .ok());
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " +
                              std::to_string(1 + i % 3))
                    .ok());
  }
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 4;
  auto sel = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD, false);
  auto ref = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kT, true);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(sel->fingerprint, ref->fingerprint);
  EXPECT_EQ(sel->epoch, ref->epoch);
}

// --- Result cache -----------------------------------------------------------

TEST(MvccResultCacheTest, RepeatedQuestionHitsUntilCommitInvalidates) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;

  auto first = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);

  auto second = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit) << "unchanged epoch must be memoized";
  EXPECT_EQ(second->fingerprint, first->fingerprint);
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_EQ(second->stats.report.CountFor(obs::TxnVerdict::kResultCacheHit),
            1u)
      << "cached answers must say so in their provenance";

  // A different question at the same epoch is a miss.
  RetroOp other = op;
  other.index = 4;
  auto third = uv.WhatIfAnalyze(other, SystemMode::kTD);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);

  // Any commit advances the epoch: the memoized answer is gone.
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 7 WHERE id = 1").ok());
  auto fourth = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth->cache_hit);
  EXPECT_GT(fourth->epoch, first->epoch);
}

TEST(MvccResultCacheTest, EqualLengthRewriteInvalidatesResults) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto first = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(first.ok());

  // History patched in place: same length, different content. Anything
  // keyed by log size would happily serve the pre-rewrite answer.
  const uint64_t len = uv.log()->last_index();
  uv.log()->at_mutable(4).sql = "UPDATE t SET v = v + 100 WHERE id = 1";
  ASSERT_EQ(uv.log()->last_index(), len);

  auto second = uv.WhatIfAnalyze(op, SystemMode::kTD);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit)
      << "stale result served across an equal-length history rewrite";
  EXPECT_GT(second->epoch, first->epoch);
}

// --- Optimistic publish -----------------------------------------------------

// A commit that lands between snapshot and publish must abort the publish
// (first committer wins) and leave the live database untouched.
TEST(MvccPublishTest, EpochConflictAbortsWithoutMutation) {
  auto universe = oracle::Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 1)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "UPDATE t SET v = v + 2 WHERE id = 1",
  });
  ASSERT_TRUE(universe.ok());
  auto history = (*universe)->History();
  ASSERT_TRUE(history.ok());

  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  RetroactiveEngine::Options eopts;
  eopts.deps.column_wise = true;
  eopts.deps.row_wise = true;
  // The view pins the epoch; advance the live history before running: the
  // publish point must detect the conflict no matter when the commit
  // landed.
  eopts.rewrite_log = (*universe)->mutable_log();
  (*universe)->mutable_log()->BumpEpoch();

  uint64_t c = 1000;
  auto before =
      (*universe)->db()->ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(before.ok());

  RetroactiveEngine engine((*universe)->db(), *history, eopts);
  auto stats = engine.Execute(op);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kAborted)
      << stats.status().ToString();

  auto after =
      (*universe)->db()->ExecuteSql("SELECT v FROM t WHERE id = 1", ++c);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), before->rows[0][0].AsInt())
      << "an aborted publish must not touch the live database";
}

TEST(MvccPublishTest, PublishAdvancesEpochAndInvalidatesSnapshots) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  auto pre = uv.SnapshotHistory();
  ASSERT_TRUE(pre.ok());

  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_GT(uv.history_epoch(), (*pre)->epoch)
      << "a published what-if rewrites history: the epoch must advance";
  auto post = uv.SnapshotHistory();
  ASSERT_TRUE(post.ok());
  EXPECT_NE(post->get(), pre->get())
      << "pre-publish snapshot must not be served after the rewrite";
}

// --- One engine, two kinds of history view ------------------------------------

// The engine reads history only through its view. A view copied from the
// log (SnapshotOfLog) and the facade's own snapshot describe the same
// history, so the same what-if over either must publish the same universe
// with the same replay counts — the Hash-jumper included.
TEST(MvccHistoryViewTest, LogViewMatchesFacadeSnapshot) {
  auto build = [] {
    Ultraverse::Options options;
    options.eager_hash_log = true;
    auto uv = std::make_unique<Ultraverse>(options);
    EXPECT_TRUE(
        uv->ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
    EXPECT_TRUE(
        uv->ExecuteSql("CREATE TABLE u (id INT PRIMARY KEY, w INT)").ok());
    for (int i = 1; i <= 6; ++i) {
      EXPECT_TRUE(uv->ExecuteSql("INSERT INTO t (id, v) VALUES (" +
                                 std::to_string(i) + ", " +
                                 std::to_string(10 * i) + ")")
                      .ok());
      EXPECT_TRUE(uv->ExecuteSql("INSERT INTO u (id, w) VALUES (" +
                                 std::to_string(i) + ", 0)")
                      .ok());
    }
    for (int i = 0; i < 12; ++i) {
      const std::string id = std::to_string(1 + i % 6);
      EXPECT_TRUE(
          uv->ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " + id).ok());
      EXPECT_TRUE(
          uv->ExecuteSql("UPDATE u SET w = w + 1 WHERE id = " + id).ok());
    }
    return uv;
  };
  struct Case {
    RetroOp::Kind kind;
    uint64_t index;
    std::string sql;
    bool hash_jumper;
  };
  const std::vector<Case> cases = {
      {RetroOp::Kind::kRemove, 4, "", false},
      {RetroOp::Kind::kRemove, 15, "", true},
      {RetroOp::Kind::kChange, 16, "UPDATE t SET v = v + 5 WHERE id = 2",
       false},
      {RetroOp::Kind::kAdd, 10, "UPDATE u SET w = 7 WHERE id = 3", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.index);
    auto log_side = build();
    auto snap_side = build();
    RetroactiveEngine::Options eopts;
    eopts.deps.column_wise = true;
    eopts.deps.row_wise = true;
    eopts.hash_jumper = c.hash_jumper;

    auto analysis = log_side->EnsureAnalysis();
    ASSERT_TRUE(analysis.ok());
    auto op = log_side->MakeOp(c.kind, c.index, c.sql);
    ASSERT_TRUE(op.ok());
    RetroactiveEngine from_log(
        log_side->db(),
        SnapshotOfLog(*log_side->log(), **analysis, log_side->analyzer()),
        eopts);
    auto a = from_log.Execute(*op);
    ASSERT_TRUE(a.ok()) << a.status().ToString();

    auto snap = snap_side->SnapshotHistory();
    ASSERT_TRUE(snap.ok());
    RetroactiveEngine from_snapshot(snap_side->db(), *snap, eopts);
    auto b = from_snapshot.Execute(*op);
    ASSERT_TRUE(b.ok()) << b.status().ToString();

    EXPECT_EQ(log_side->StateFingerprint(), snap_side->StateFingerprint());
    EXPECT_EQ(a->replayed, b->replayed);
    EXPECT_EQ(a->skipped, b->skipped);
    EXPECT_EQ(a->critical_path, b->critical_path);
    EXPECT_EQ(a->hash_jump, b->hash_jump);
  }
}

// --- Concurrent end-to-end oracle (satellite 4) ------------------------------

// N analyst threads race N writer threads; every pinned snapshot's
// selective analysis must fingerprint-match the full-naive reference
// computed at the same snapshot, and publishes must land or abort cleanly.
TEST(MvccConcurrentTest, AnalysesMatchOracleUnderCommitTraffic) {
  oracle::ConcurrentFuzzOptions options;
  options.seed = 42;
  options.writer_threads = 2;
  options.analyst_threads = 4;
  options.commits_per_writer = 24;
  options.analyses_per_analyst = 6;
  auto report = oracle::ConcurrentFuzz(options);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(report.divergences, 0u);
  EXPECT_EQ(report.commits, 2u * 24u);
  EXPECT_GT(report.analyses, 0u);
  EXPECT_GT(report.snapshots_pinned, 1u)
      << "analysts should observe the history advancing";
}

// A remove target past the snapshot's horizon (published removes shrank
// the log) is rejected alike by both sides: the judge counts that as
// agreement, while a one-sided failure or differing rejections diverge.
TEST(MvccConcurrentTest, SameRejectionPastHorizonIsAgreement) {
  Ultraverse uv;
  for (const char* sql : {"CREATE TABLE a (id INT PRIMARY KEY, v INT)",
                          "INSERT INTO a (id, v) VALUES (1, 10)",
                          "INSERT INTO a (id, v) VALUES (2, 20)",
                          "UPDATE a SET v = 11 WHERE id = 1"}) {
    ASSERT_TRUE(uv.ExecuteSql(sql).ok()) << sql;
  }
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp past;
  past.kind = RetroOp::Kind::kRemove;
  past.index = (*snap)->horizon + 3;
  auto sel = uv.WhatIfAnalyzeAt(**snap, past, SystemMode::kTD, false);
  auto ref = uv.WhatIfAnalyzeAt(**snap, past, SystemMode::kT, true);
  ASSERT_FALSE(sel.ok());
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(oracle::JudgeAnalysisPair(sel, ref, true), "");

  RetroOp inside = past;
  inside.index = 2;
  auto good = uv.WhatIfAnalyzeAt(**snap, inside, SystemMode::kTD, false);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(oracle::JudgeAnalysisPair(good, good, true), "");
  EXPECT_NE(oracle::JudgeAnalysisPair(good, ref, true), "");
  EXPECT_NE(oracle::JudgeAnalysisPair(sel, good, false), "");
  Result<WhatIfAnalysis> other = Status::Internal("another failure");
  EXPECT_NE(oracle::JudgeAnalysisPair(sel, other, true), "");

  WhatIfAnalysis changed = *good;
  changed.fingerprint += "x";
  EXPECT_NE(oracle::JudgeAnalysisPair(good, changed, true), "");
  EXPECT_EQ(oracle::JudgeAnalysisPair(good, changed, false), "");
}

// --- Extended snapshots (O(delta) builds) ------------------------------------

std::string DumpRegion(const ValueRegion& r) {
  if (r.top) return "*";
  std::string s = "{";
  for (const auto& p : r.points) s += p + ";";
  for (const auto& iv : r.intervals) {
    s += iv.lo_incl ? "[" : "(";
    s += iv.lo ? iv.lo->Encode() : "-inf";
    s += ",";
    s += iv.hi ? iv.hi->Encode() : "+inf";
    s += iv.hi_incl ? "]" : ")";
  }
  return s + "}";
}

std::string DumpStrings(const std::set<std::string>& items) {
  std::string s;
  for (const auto& i : items) s += i + ",";
  return s;
}

std::string DumpRows(const RowSet& rows) {
  std::string s;
  for (const auto& [col, region] : rows.cols) {
    s += col + DumpRegion(region) + " ";
  }
  return s;
}

/// Every field of every per-entry R/W set, one line per entry.
std::string DumpAnalysis(const std::vector<QueryRW>& analysis) {
  std::string s;
  for (const QueryRW& rw : analysis) {
    s += "rc:" + DumpStrings(rw.rc.items) + " wc:" + DumpStrings(rw.wc.items) +
         " rr:" + DumpRows(rw.rr) + " wr:" + DumpRows(rw.wr) +
         " rt:" + DumpStrings(rw.read_tables) +
         " wt:" + DumpStrings(rw.write_tables) +
         " ddl:" + std::to_string(rw.is_ddl) +
         " ow:" + std::to_string(rw.overwrites) + "\n";
  }
  return s;
}

std::string DumpFootprints(const std::vector<TableFootprint>& footprints) {
  std::string s;
  for (const TableFootprint& fp : footprints) {
    s += (fp.universal ? "*" : "") + DumpStrings(fp.tables) + "\n";
  }
  return s;
}

std::string DumpEntries(const std::vector<const sql::LogEntry*>& entries) {
  std::string s;
  for (const sql::LogEntry* e : entries) {
    s += std::to_string(e->index) + " " + e->sql + " | " + e->app_txn + "(";
    for (const sql::Value& v : e->app_args) s += v.Encode() + ",";
    s += ")\n";
  }
  return s;
}

/// Two facades fed identical commits: `live` snapshots after every commit,
/// `sparse` only at checkpoints, where their snapshots must agree.
class ExtendedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    live_ = MakeFacade();
    sparse_ = MakeFacade();
  }

  static std::unique_ptr<Ultraverse> MakeFacade() {
    auto uv = std::make_unique<Ultraverse>();
    uv->ConfigureRi("subscriber", "s_id", {"sub_nbr"});
    uv->ConfigureRi("call_forwarding", "s_id");
    return uv;
  }

  /// Commits `sql` on both facades; `live` snapshots right after.
  void Commit(const std::string& sql) {
    ASSERT_TRUE(sparse_->ExecuteSql(sql).ok()) << sql;
    ASSERT_TRUE(live_->ExecuteSql(sql).ok()) << sql;
    SnapshotLive();
  }

  /// `live` snapshots; returns whether the build extended the previous
  /// snapshot (shares its entry segments) rather than copying everything.
  bool SnapshotLive() {
    auto snap = live_->SnapshotHistory();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (!snap.ok()) return false;
    const bool extended =
        last_ != nullptr && !last_->entry_storage.empty() &&
        (*snap)->entry_storage.size() == last_->entry_storage.size() + 1 &&
        (*snap)->entry_storage.front() == last_->entry_storage.front();
    last_ = *snap;
    return extended;
  }

  /// Runs the transpiled `fn` on both facades; `live` snapshots after.
  void CommitTxn(const std::string& fn, const std::string& nbr, int value) {
    for (Ultraverse* uv : {sparse_.get(), live_.get()}) {
      auto r = uv->RunTransaction(
          fn, {app::AppValue::String(nbr), app::AppValue::Number(value)},
          SystemMode::kT);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    SnapshotLive();
  }

  void Publish(const RetroOp& op) {
    auto a = sparse_->WhatIf(op, SystemMode::kTD);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = live_->WhatIf(op, SystemMode::kTD);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
  }

  /// Both facades snapshot; the snapshots and one analyze-only what-if on
  /// them must agree.
  void Checkpoint(const char* what) {
    SCOPED_TRACE(what);
    SnapshotLive();
    auto sparse = sparse_->SnapshotHistory();
    ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
    const HistorySnapshot& a = *last_;
    const HistorySnapshot& b = **sparse;
    ASSERT_EQ(a.horizon, b.horizon);
    ASSERT_EQ(a.entries->size(), a.horizon);
    ASSERT_EQ(a.analysis->size(), a.horizon);
    ASSERT_EQ(a.footprints->size(), a.horizon);
    EXPECT_EQ(DumpEntries(*a.entries), DumpEntries(*b.entries));
    EXPECT_EQ(DumpAnalysis(*a.analysis), DumpAnalysis(*b.analysis));
    EXPECT_EQ(DumpFootprints(*a.footprints), DumpFootprints(*b.footprints));
    // And both equal what the live facade holds right now.
    std::vector<const sql::LogEntry*> log;
    for (const sql::LogEntry& e : sparse_->log()->entries()) log.push_back(&e);
    EXPECT_EQ(DumpEntries(*b.entries), DumpEntries(log));
    auto analysis = sparse_->EnsureAnalysis();
    ASSERT_TRUE(analysis.ok());
    EXPECT_EQ(DumpAnalysis(*b.analysis), DumpAnalysis(**analysis));
    RetroOp op;
    op.kind = RetroOp::Kind::kRemove;
    op.index = a.horizon - 1;
    auto wa = live_->WhatIfAnalyzeAt(a, op, SystemMode::kTD);
    auto wb = sparse_->WhatIfAnalyzeAt(b, op, SystemMode::kTD);
    ASSERT_TRUE(wa.ok()) << wa.status().ToString();
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    EXPECT_EQ(wa->fingerprint, wb->fingerprint);
    EXPECT_EQ(wa->stats.replayed, wb->stats.replayed);
  }

  void Updates(int first, int n) {
    for (int i = first; i < first + n; ++i) {
      const std::string id = std::to_string(1 + i % 8);
      Commit(i % 2 == 0 ? "UPDATE subscriber SET vlr = vlr + " +
                              std::to_string(i) + " WHERE sub_nbr = 's" + id +
                              "'"
                        : "INSERT INTO call_forwarding (s_id, num) VALUES (" +
                              id + ", " + std::to_string(i) + ")");
    }
  }

  std::unique_ptr<Ultraverse> live_;
  std::unique_ptr<Ultraverse> sparse_;
  std::shared_ptr<const HistorySnapshot> last_;
};

TEST_F(ExtendedSnapshotTest, ExtendedSnapshotsEqualFreshBuilds) {
  Commit("CREATE TABLE subscriber (s_id INT PRIMARY KEY, sub_nbr VARCHAR, "
         "vlr INT)");
  Commit("CREATE TABLE call_forwarding (s_id INT, num INT)");
  for (int s = 1; s <= 8; ++s) {
    const std::string id = std::to_string(s);
    Commit("INSERT INTO subscriber (s_id, sub_nbr, vlr) VALUES (" + id +
           ", 's" + id + "', 0)");
  }
  const char* const app = R"JS(
function Locate(nbr, location) {
  SQL_exec("UPDATE subscriber SET vlr = " + location +
           " WHERE sub_nbr = '" + nbr + "'");
}
)JS";
  ASSERT_TRUE(sparse_->LoadApplication(app).ok());
  ASSERT_TRUE(live_->LoadApplication(app).ok());
  CommitTxn("Locate", "s2", 5);
  Updates(0, 6);
  CommitTxn("Locate", "s4", 9);
  Updates(6, 6);
  Checkpoint("plain appends");

  // Plain appends extend: one new segment, the old ones shared.
  const std::shared_ptr<const HistorySnapshot> before = last_;
  Updates(12, 1);
  EXPECT_EQ(last_->entry_storage.size(), before->entry_storage.size() + 1);
  EXPECT_EQ(last_->entry_storage.front(), before->entry_storage.front());
  EXPECT_EQ(last_->generation, before->generation);

  // Publishes rewrite history in place: the next snapshot may not extend.
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 14;
  Publish(op);
  EXPECT_FALSE(SnapshotLive()) << "extended across a publish";
  EXPECT_GT(last_->generation, before->generation);
  Updates(13, 3);
  Checkpoint("remove published");
  op.kind = RetroOp::Kind::kChange;
  op.index = 16;
  op.new_sql = "UPDATE subscriber SET vlr = vlr + 1000 WHERE sub_nbr = 's3'";
  op.new_stmt = *sql::Parser::ParseStatement(op.new_sql);
  Publish(op);
  Updates(16, 3);
  Checkpoint("change published");
  op.kind = RetroOp::Kind::kAdd;
  op.index = 12;
  op.new_sql = "INSERT INTO call_forwarding (s_id, num) VALUES (5, 555)";
  op.new_stmt = *sql::Parser::ParseStatement(op.new_sql);
  Publish(op);
  Updates(19, 3);
  Checkpoint("add published");

  // An RI merge (s_id 7 becomes 70) re-canonicalizes the whole analysis.
  const uint64_t merges = live_->analyzer()->merge_generation();
  const uint64_t generation = last_->generation;
  Commit("UPDATE subscriber SET s_id = 70 WHERE s_id = 7");
  EXPECT_GT(live_->analyzer()->merge_generation(), merges);
  EXPECT_GT(last_->generation, generation)
      << "re-canonicalization must stop the next build from extending";
  Commit("INSERT INTO call_forwarding (s_id, num) VALUES (70, 1)");
  Updates(22, 4);
  Checkpoint("RI merge");
}

TEST_F(ExtendedSnapshotTest, RecoveredHistorySnapshotsEqualFreshBuilds) {
  const std::string dir = ::testing::TempDir();
  const std::string live_wal = dir + "uv_mvcc_extend_live.wal";
  const std::string sparse_wal = dir + "uv_mvcc_extend_sparse.wal";
  std::filesystem::remove(live_wal);
  std::filesystem::remove(sparse_wal);
  ASSERT_TRUE(live_->AttachWal(live_wal).ok());
  ASSERT_TRUE(sparse_->AttachWal(sparse_wal).ok());
  Commit("CREATE TABLE subscriber (s_id INT PRIMARY KEY, sub_nbr VARCHAR, "
         "vlr INT)");
  Commit("CREATE TABLE call_forwarding (s_id INT, num INT)");
  for (int s = 1; s <= 8; ++s) {
    const std::string id = std::to_string(s);
    Commit("INSERT INTO subscriber (s_id, sub_nbr, vlr) VALUES (" + id +
           ", 's" + id + "', 0)");
  }
  Updates(0, 10);
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 13;
  Publish(op);
  Updates(10, 4);

  // Restart both over their WALs. The recovered facade that snapshots at
  // every commit took one snapshot before recovery, which recovery's
  // in-place rewrite of the log must keep it from extending.
  std::unique_ptr<Ultraverse> live = MakeFacade();
  std::unique_ptr<Ultraverse> sparse = MakeFacade();
  auto empty = live->SnapshotHistory();
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(fault::RecoverInto(live_wal, live->db(), live->log()).ok());
  ASSERT_TRUE(
      fault::RecoverInto(sparse_wal, sparse->db(), sparse->log()).ok());
  ASSERT_EQ(live->log()->size(), live_->log()->size());
  EXPECT_GT(live->log()->generation(), (*empty)->generation);
  live_ = std::move(live);
  sparse_ = std::move(sparse);
  last_ = *empty;
  EXPECT_FALSE(SnapshotLive()) << "extended across WAL recovery";
  Checkpoint("recovered");
  Updates(14, 6);
  Checkpoint("appends after recovery");
  std::filesystem::remove(live_wal);
  std::filesystem::remove(sparse_wal);
}

// A commit must not wait for the snapshot's O(horizon) copy: once the build
// reaches its off-lock phase (the delayed failpoint), a writer on another
// thread commits while the snapshot call is still inside the delay.
TEST(MvccSnapshotTest, CommitDoesNotWaitForTheOffLockCopy) {
  Ultraverse uv;
  ASSERT_TRUE(
      uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 1)").ok());
  auto& registry = fault::FailpointRegistry::Global();
  const char* const site = "whatif.snapshot.extend";
  const uint64_t fires = registry.Fires(site);
  fault::FailpointConfig delay;
  delay.action = fault::FailAction::kDelay;
  delay.delay_micros = 300000;
  delay.max_fires = 1;
  registry.Arm(site, delay);
  std::atomic<bool> snapshot_returned{false};
  std::thread analyst([&] {
    auto snap = uv.SnapshotHistory();
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    snapshot_returned.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.Fires(site) == fires &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool reached = registry.Fires(site) != fires;
  EXPECT_TRUE(reached) << "the snapshot build never reached " << site;
  if (reached) {
    EXPECT_TRUE(uv.ExecuteSql("INSERT INTO t (id, v) VALUES (2, 2)").ok());
    EXPECT_FALSE(snapshot_returned.load())
        << "the commit waited for the snapshot's off-lock phase";
  }
  analyst.join();
  registry.DisarmAll();
  EXPECT_TRUE(snapshot_returned.load());
}

}  // namespace
}  // namespace ultraverse::core
