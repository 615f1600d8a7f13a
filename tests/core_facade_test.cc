#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/ri_selector.h"
#include "core/txn_scheduler.h"
#include "fault/recovery.h"
#include "sqldb/parser.h"
#include "sqldb/state_diff.h"
#include "core/ultraverse.h"

namespace ultraverse::core {
namespace {

using app::AppValue;

// --- RiSelector ---------------------------------------------------------------

class RiSelectorTest : public ::testing::Test {
 protected:
  void Commit(const std::string& sql) {
    ASSERT_TRUE(uv_.ExecuteSql(sql).ok()) << sql;
  }
  Ultraverse uv_;
};

TEST_F(RiSelectorTest, PrimaryKeyWinsByDefault) {
  Commit("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Commit("INSERT INTO t VALUES (1, 0)");
  auto choices = RiSelector::SelectFromLog(*uv_.log());
  EXPECT_EQ(choices.at("t").ri_column, "id");
}

TEST_F(RiSelectorTest, MostEquatedColumnWinsWithoutPk) {
  Commit("CREATE TABLE s (a INT, b INT, c INT)");
  Commit("INSERT INTO s VALUES (1, 2, 3)");
  for (int i = 0; i < 5; ++i) {
    Commit("UPDATE s SET c = 9 WHERE b = " + std::to_string(i));
  }
  Commit("UPDATE s SET c = 9 WHERE a = 1");
  auto choices = RiSelector::SelectFromLog(*uv_.log());
  EXPECT_EQ(choices.at("s").ri_column, "b");
}

TEST_F(RiSelectorTest, HeavilyEquatedSecondColumnBecomesAlias) {
  Commit("CREATE TABLE u (uid INT PRIMARY KEY, nick VARCHAR(8))");
  for (int i = 0; i < 4; ++i) {
    Commit("INSERT INTO u VALUES (" + std::to_string(i) + ", 'n" +
           std::to_string(i) + "')");
    Commit("UPDATE u SET nick = 'x' WHERE uid = " + std::to_string(i));
    Commit("DELETE FROM u WHERE nick = 'x'");
    Commit("INSERT INTO u VALUES (" + std::to_string(i) + ", 'n')");
  }
  auto choices = RiSelector::SelectFromLog(*uv_.log());
  const auto& c = choices.at("u");
  EXPECT_EQ(c.ri_column, "uid");
  ASSERT_EQ(c.aliases.size(), 1u);
  EXPECT_EQ(c.aliases[0], "nick");
}

TEST_F(RiSelectorTest, LooksInsideProcedures) {
  Commit("CREATE TABLE w (k INT, v INT)");
  Commit("CREATE PROCEDURE bump (IN x INT) BEGIN"
         " UPDATE w SET v = v + 1 WHERE k = x; END");
  Commit("INSERT INTO w VALUES (1, 0)");
  Commit("CALL bump(1)");
  Commit("CALL bump(1)");
  auto choices = RiSelector::SelectFromLog(*uv_.log());
  EXPECT_EQ(choices.at("w").ri_column, "k");
}

TEST_F(RiSelectorTest, ApplyEnablesRowPruning) {
  Commit("CREATE TABLE t (id INT, v INT)");  // no PK: wildcard without RI
  Commit("INSERT INTO t VALUES (1, 0)");
  uint64_t target = uv_.log()->last_index();
  Commit("INSERT INTO t VALUES (2, 0)");
  for (int i = 0; i < 6; ++i) {
    Commit("UPDATE t SET v = v + 1 WHERE id = 2");
  }
  RiSelector::Apply(*uv_.log(), uv_.analyzer());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv_.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replayed, 0u)
      << "with the auto-selected RI column, row 2's updates are independent";
}

// --- Captured-variable concretization (§4.3) ------------------------------------

TEST(CapturedVarsTest, SelectIntoRiValueIsConcretizedFromCapture) {
  // TATP-style: the inserted row's key comes from a SELECT ... INTO. When
  // committed through the transpiled procedure, the variable's runtime
  // value is captured and row-wise analysis uses it instead of a wildcard.
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE sub (s_id INT PRIMARY KEY,"
                            " nbr VARCHAR(8))")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE fwd (s_id INT, dest VARCHAR(8))")
                  .ok());
  ASSERT_TRUE(uv.LoadApplication(R"JS(
function AddFwd(nbr, dest) {
  var rows = SQL_exec("SELECT s_id FROM sub WHERE nbr = '" + nbr + "'");
  if (rows[0]["s_id"] != 0) {
    SQL_exec("INSERT INTO fwd VALUES (" + rows[0]["s_id"] + ", '" + dest +
             "')");
  }
}
function DelFwd(sid) {
  SQL_exec("DELETE FROM fwd WHERE s_id = " + sid);
}
)JS")
                  .ok());
  uv.ConfigureRi("sub", "s_id", {"nbr"});
  uv.ConfigureRi("fwd", "s_id");
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO sub VALUES (7, 's7'), (8, 's8')")
                  .ok());

  // Committed via the transpiled procedure: captures sql_out1_0_s_id = 7.
  ASSERT_TRUE(uv.RunTransaction("AddFwd",
                                {AppValue::String("s7"),
                                 AppValue::String("x")},
                                SystemMode::kT)
                  .ok());
  uint64_t target = uv.log()->last_index();
  const auto& entry = uv.log()->at(target);
  EXPECT_FALSE(entry.captured_vars.empty())
      << "transpiled execution must capture procedure variables";

  // Independent traffic on subscriber 8 must not be dependent.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(uv.RunTransaction("AddFwd",
                                  {AppValue::String("s8"),
                                   AppValue::String("y")},
                                  SystemMode::kT)
                    .ok());
    ASSERT_TRUE(uv.RunTransaction("DelFwd", {AppValue::Number(8)},
                                  SystemMode::kT)
                    .ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replayed, 0u)
      << "s_id=8 traffic is row-independent once the SELECT-INTO value is "
         "concretized (§4.3)";
  auto fwd = uv.db()->ExecuteSql("SELECT COUNT(*) FROM fwd WHERE s_id = 7",
                                 7000);
  EXPECT_EQ(fwd->rows[0][0].AsInt(), 0) << "the removed insert is gone";
}

// --- Hash-hit literal verification -----------------------------------------------

TEST(HashVerifyTest, VerifiedHitStillJumps) {
  Ultraverse::Options opts;
  opts.hash_jumper = true;
  opts.verify_hash_hits = true;
  opts.eager_hash_log = true;
  Ultraverse uv(opts);
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE m (uid INT PRIMARY KEY, s INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO m VALUES (1, 0)").ok());
  ASSERT_TRUE(
      uv.ExecuteSql("UPDATE m SET s = s + 5 WHERE uid = 1").ok());
  uint64_t target = uv.log()->last_index();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = s + 1 WHERE uid = 1").ok());
  }
  ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = 777 WHERE uid = 1").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = s + 1 WHERE uid = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->hash_jump);
  EXPECT_TRUE(stats->hash_hit_verified)
      << "the literal comparison must confirm the hash-hit (§4.5)";
  auto r = uv.db()->ExecuteSql("SELECT s FROM m", 8000);
  EXPECT_EQ(r->rows[0][0].AsInt(), 787) << "original state retained";
}

// --- Table digests exist only with the eager hash log ------------------------------

Digest256 FromScratchHash(const sql::Table& t) {
  TableHash rebuilt;
  t.Scan([&](sql::RowId, const sql::Row& row) {
    rebuilt.AddRow(sql::EncodeRow(row));
    return true;
  });
  return rebuilt.value();
}

/// Two tables, a retroactive target early in the history, then traffic.
/// Returns the target's log index.
uint64_t BuildDigestHistory(Ultraverse* uv) {
  EXPECT_TRUE(uv->ExecuteSql("CREATE TABLE a (id INT PRIMARY KEY, v INT)")
                  .ok());
  EXPECT_TRUE(uv->ExecuteSql("CREATE TABLE b (id INT PRIMARY KEY, v INT)")
                  .ok());
  EXPECT_TRUE(uv->ExecuteSql("INSERT INTO a VALUES (1, 0)").ok());
  EXPECT_TRUE(uv->ExecuteSql("UPDATE a SET v = v + 5 WHERE id = 1").ok());
  uint64_t target = uv->log()->last_index();
  for (int i = 2; i < 30; ++i) {
    std::string id = std::to_string(i);
    EXPECT_TRUE(uv->ExecuteSql("INSERT INTO b VALUES (" + id + ", " + id +
                               ")")
                    .ok());
    EXPECT_TRUE(
        uv->ExecuteSql("UPDATE a SET v = v + " + id + " WHERE id = 1").ok());
    if (i % 3 == 0) {
      EXPECT_TRUE(uv->ExecuteSql("DELETE FROM b WHERE id = " +
                                 std::to_string(i - 1))
                      .ok());
    }
  }
  return target;
}

/// Selective publish, then a checkpoint so the next what-if must take the
/// rebuild-from-log staging path.
void PublishSelectiveThenRebuild(Ultraverse* uv, uint64_t target) {
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto selective = uv->WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(selective.ok());
  EXPECT_FALSE(selective->schema_rebuild);
  EXPECT_TRUE(uv->ExecuteSql("INSERT INTO b VALUES (100, 1)").ok());
  uv->Checkpoint();
  EXPECT_TRUE(uv->ExecuteSql("UPDATE a SET v = 0 WHERE id = 1").ok());
  op.index = target - 1;  // the INSERT into a, behind the trim horizon
  auto rebuilt = uv->WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->schema_rebuild);
}

TEST(TableDigestTest, DefaultOptionsKeepAndLogNoDigests) {
  Ultraverse uv;
  uint64_t target = BuildDigestHistory(&uv);
  EXPECT_FALSE(uv.db()->table_hashing());
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  ASSERT_TRUE(uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD,
                                 /*full_naive=*/true)
                  .ok());
  for (const auto& name : (*snap)->db->TableNames()) {
    EXPECT_EQ((*snap)->db->FindTable(name)->table_hash(), nullptr) << name;
  }
  PublishSelectiveThenRebuild(&uv, target);
  for (uint64_t i = 1; i <= uv.log()->size(); ++i) {
    EXPECT_TRUE(uv.log()->at(i).table_hashes.empty()) << "entry " << i;
  }
  for (const auto& name : uv.db()->TableNames()) {
    EXPECT_EQ(uv.db()->FindTable(name)->table_hash(), nullptr) << name;
  }
}

TEST(TableDigestTest, EagerHashLogRecordsFromScratchDigests) {
  Ultraverse::Options opts;
  opts.eager_hash_log = true;
  Ultraverse uv(opts);
  uint64_t target = BuildDigestHistory(&uv);
  // Each table's latest logged digest must equal a from-scratch hash of the
  // live table.
  auto expect_logged_digests_exact = [&](const char* when) {
    std::map<std::string, Digest256> latest;
    for (uint64_t i = 1; i <= uv.log()->size(); ++i) {
      for (const auto& [table, digest] : uv.log()->at(i).table_hashes) {
        latest[table] = digest;
      }
    }
    for (const auto& name : uv.db()->TableNames()) {
      const sql::Table* t = uv.db()->FindTable(name);
      ASSERT_NE(t->table_hash(), nullptr) << when << ": " << name;
      EXPECT_EQ(t->table_hash()->value(), FromScratchHash(*t))
          << when << ": " << name;
      ASSERT_TRUE(latest.count(name)) << when << ": " << name;
      EXPECT_EQ(latest[name], FromScratchHash(*t)) << when << ": " << name;
    }
  };
  expect_logged_digests_exact("after history");
  PublishSelectiveThenRebuild(&uv, target);
  expect_logged_digests_exact("after rebuild-path publish");
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO a VALUES (2, 2)").ok());
  expect_logged_digests_exact("after a post-publish commit");
}

// --- Facade odds and ends ----------------------------------------------------------

TEST(FacadeTest, ScenarioTagsRecordBranchPoints) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (v INT)").ok());
  uv.TagScenario("before-data");
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (1)").ok());
  uv.TagScenario("after-data");
  EXPECT_EQ(uv.scenario_tags().at("before-data"), 1u);
  EXPECT_EQ(uv.scenario_tags().at("after-data"), 2u);
}

TEST(FacadeTest, UltraverseLogSmallerThanStatementLog) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i * 3) + ")")
                    .ok());
  }
  EXPECT_LT(uv.UltraverseLogBytes(), uv.log()->MySqlStyleBytes());
}

TEST(FacadeTest, StatsFieldsAreCoherent) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (1, 0)").ok());
  uint64_t target = uv.log()->last_index();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->history_size, 11u);
  EXPECT_EQ(stats->suffix_size, 10u);
  EXPECT_EQ(stats->replayed, 9u);
  EXPECT_EQ(stats->planned_replay, 9u);
  EXPECT_EQ(stats->critical_path, 9u) << "RMW chain cannot parallelize";
  EXPECT_GE(stats->virtual_rtt_micros, 9u * 1000);
  EXPECT_GT(stats->temp_db_bytes, 0u);
}

TEST(FacadeTest, ConcurrentCommitsAndWhatIfAreSafe) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 0)")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::thread committer([&] {
    int k = 100;
    while (!stop.load()) {
      (void)uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " +
                          std::to_string(1 + (k++ % 20)));
    }
  });
  // Optimistic-concurrency contract: against live commit traffic a publish
  // either lands or loses the epoch race with a clean kAborted (live state
  // untouched); no other failure mode is acceptable.
  for (int i = 0; i < 5; ++i) {
    RetroOp op;
    op.kind = RetroOp::Kind::kRemove;
    op.index = 3;
    auto stats = uv.WhatIf(op, SystemMode::kTD);
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kAborted)
          << stats.status().ToString();
    }
  }
  stop.store(true);
  committer.join();
  // With traffic quiesced the race cannot be lost: the publish must land.
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 3;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
}

// --- Checkpointing (rollback option iii) -------------------------------------------

TEST(CheckpointTest, WhatIfBeforeTrimHorizonRebuildsFromLog) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (1, 0)").ok());
  uint64_t target = uv.log()->last_index() + 1;
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 50 WHERE id = 1").ok());
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v * 2 WHERE id = 1").ok());
  uv.Checkpoint();  // journals trimmed: the target predates the horizon
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());

  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->schema_rebuild)
      << "pre-horizon targets must take the rebuild-from-log path";
  auto r = uv.db()->ExecuteSql("SELECT v FROM t", 9500);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1) << "(0)*2+1 without the +50";
}

TEST(CheckpointTest, WhatIfAfterHorizonStillUsesJournals) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (1, 0)").ok());
  uv.Checkpoint();
  uint64_t target = uv.log()->last_index() + 1;
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 50 WHERE id = 1").ok());
  ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v * 2 WHERE id = 1").ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->schema_rebuild);
  auto r = uv.db()->ExecuteSql("SELECT v FROM t", 9501);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST(CheckpointTest, TrimBoundsJournalMemory) {
  Ultraverse uv;
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO t VALUES (1, 0)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1").ok());
  }
  size_t before = uv.db()->FindTable("t")->JournalSize();
  uv.Checkpoint();
  size_t after = uv.db()->FindTable("t")->JournalSize();
  EXPECT_GT(before, 200u);
  EXPECT_EQ(after, 0u);
}

// --- Naive publish (DESIGN.md §7) ---------------------------------------------------

TEST(NaivePublishTest, DdlPublishLeavesJournalsLaterWhatIfsRollBack) {
  const std::string path = ::testing::TempDir() + "naive_publish.wal";
  std::filesystem::remove(path);
  Ultraverse::Options opts;
  opts.wal_path = path;
  Ultraverse uv(opts);
  ASSERT_TRUE(uv.wal_status().ok()) << uv.wal_status().message();
  for (const char* sql : {"CREATE TABLE acct (id INT PRIMARY KEY, v INT)",
                          "INSERT INTO acct VALUES (1, 10)",
                          "INSERT INTO acct VALUES (2, 20)",
                          "CREATE TABLE doomed (id INT PRIMARY KEY)",
                          "UPDATE acct SET v = v + 1 WHERE id = 1",
                          "INSERT INTO doomed VALUES (1)",
                          "UPDATE acct SET v = v * 2 WHERE id = 2"}) {
    ASSERT_TRUE(uv.ExecuteSql(sql).ok()) << sql;
  }

  // Journals cannot undo a CREATE TABLE: the publish re-executes naively.
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 4;
  auto naive = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->report.strategy.kind, "naive");
  EXPECT_TRUE(naive->schema_rebuild);
  EXPECT_EQ(uv.db()->FindTable("doomed"), nullptr);

  ASSERT_TRUE(uv.ExecuteSql("UPDATE acct SET v = v * 3 WHERE id = 1").ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO acct VALUES (3, 30)").ok());

  // The `v + 1` UPDATE, renumbered to 4 by the publish: its undo entry was
  // journaled by the naive universe at that index, and nothing reset it.
  op.index = 4;
  ASSERT_EQ(uv.log()->at(op.index).sql,
            "UPDATE acct SET v = v + 1 WHERE id = 1");
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  auto analyzed = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD, false);
  auto reference = uv.WhatIfAnalyzeAt(**snap, op, SystemMode::kTD, true);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(analyzed->stats.report.strategy.kind, "selective");
  EXPECT_EQ(analyzed->fingerprint, reference->fingerprint);

  auto selective = uv.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(selective.ok()) << selective.status().ToString();
  EXPECT_EQ(selective->report.strategy.kind, "selective");
  EXPECT_FALSE(selective->schema_rebuild);
  EXPECT_EQ(uv.StateFingerprint(), reference->fingerprint);
  auto r = uv.db()->ExecuteSql("SELECT v FROM acct WHERE id = 1", 9502);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 30) << "10 * 3 without the + 1";

  auto recovered = fault::RecoverState(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, *uv.db(), "recovered", "live");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
  std::filesystem::remove(path);
}

// --- §6 concurrency-control application ---------------------------------------------

TEST(TxnSchedulerTest, ParallelBatchEqualsSerialExecution) {
  auto build = [](bool scheduled) {
    sql::Database db;
    EXPECT_TRUE(db.ExecuteSql("CREATE TABLE acct (id INT PRIMARY KEY,"
                              " bal INT)",
                              1)
                    .ok());
    for (int i = 1; i <= 10; ++i) {
      EXPECT_TRUE(db.ExecuteSql("INSERT INTO acct VALUES (" +
                                std::to_string(i) + ", 100)",
                                uint64_t(1 + i))
                      .ok());
    }
    Rng rng(42);
    std::vector<sql::StatementPtr> batch;
    for (int i = 0; i < 60; ++i) {
      int id = int(rng.UniformInt(1, 10));
      auto stmt = sql::Parser::ParseStatement(
          "UPDATE acct SET bal = bal + " +
          std::to_string(rng.UniformInt(1, 9)) + " WHERE id = " +
          std::to_string(id));
      EXPECT_TRUE(stmt.ok());
      batch.push_back(*stmt);
    }
    if (scheduled) {
      QueryAnalyzer analyzer;
      sql::LogEntry ddl;
      ddl.stmt = *sql::Parser::ParseStatement(
          "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
      EXPECT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
      TxnScheduler scheduler(&db, &analyzer, TxnScheduler::Options{8});
      auto stats = scheduler.ExecuteBatch(batch, 100);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_LT(stats->critical_path, batch.size())
          << "updates of distinct accounts must parallelize";
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        sql::ExecContext ctx;
        EXPECT_TRUE(db.Execute(*batch[i], 100 + i, &ctx).ok());
      }
    }
    auto r = db.ExecuteSql("SELECT SUM(bal) FROM acct", 9999);
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  };
  EXPECT_EQ(build(true), build(false));
}

TEST(TxnSchedulerTest, FullyConflictingBatchIsAChain) {
  sql::Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE c (id INT PRIMARY KEY, v INT)", 1).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO c VALUES (1, 0)", 2).ok());
  QueryAnalyzer analyzer;
  sql::LogEntry ddl;
  ddl.stmt = *sql::Parser::ParseStatement(
      "CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  ASSERT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
  std::vector<sql::StatementPtr> batch;
  for (int i = 0; i < 20; ++i) {
    batch.push_back(*sql::Parser::ParseStatement(
        "UPDATE c SET v = v + 1 WHERE id = 1"));
  }
  TxnScheduler scheduler(&db, &analyzer, TxnScheduler::Options{8});
  auto stats = scheduler.ExecuteBatch(batch, 100);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->critical_path, 20u) << "RMW chain on one row is serial";
  auto r = db.ExecuteSql("SELECT v FROM c", 9999);
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
}

// An eager commit after a publish must analyze the log from where the
// publish truncated the analysis, not just the newest entry: the analysis
// stays aligned with the log, exactly as lazy catch-up builds it.
TEST(FacadeAnalysisTest, EagerAnalysisStaysAlignedAcrossPublish) {
  auto run = [](bool eager) {
    Ultraverse::Options options;
    options.eager_analysis = eager;
    auto uv = std::make_unique<Ultraverse>(options);
    for (const char* sql : {
             "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
             "CREATE TABLE u (id INT PRIMARY KEY, w INT)",
             "INSERT INTO t (id, v) VALUES (1, 1)",
             "INSERT INTO u (id, w) VALUES (1, 1)",
             "UPDATE t SET v = v + 1 WHERE id = 1",
             "UPDATE u SET w = w + 1 WHERE id = 1",
         }) {
      EXPECT_TRUE(uv->ExecuteSql(sql).ok()) << sql;
    }
    auto op = uv->MakeOp(RetroOp::Kind::kRemove, 5, "");
    EXPECT_TRUE(op.ok());
    EXPECT_TRUE(uv->WhatIf(*op, SystemMode::kTD).ok());
    EXPECT_TRUE(uv->ExecuteSql("UPDATE t SET v = 9 WHERE id = 1").ok());
    auto analysis = uv->EnsureAnalysis();
    EXPECT_TRUE(analysis.ok());
    std::vector<std::set<std::string>> writes;
    for (const QueryRW& rw : **analysis) writes.push_back(rw.write_tables);
    return writes;
  };
  const std::vector<std::set<std::string>> lazy = run(false);
  ASSERT_EQ(lazy.size(), 6u);
  EXPECT_EQ(lazy[4], std::set<std::string>{"u"});
  EXPECT_EQ(lazy[5], std::set<std::string>{"t"});
  EXPECT_EQ(run(true), lazy);
}

}  // namespace
}  // namespace ultraverse::core
