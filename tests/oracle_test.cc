// Differential replay oracle + fuzzer tests (DESIGN.md §9), including the
// committed minimal repros of the divergence bugs the oracle flushed out:
//   - AUTO_INCREMENT watermark policy under retroactive insert addition,
//   - Hash-jumper false hit when the timeline lacks a baseline digest,
//   - Value comparison/encoding precision above 2^53.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dep_graph.h"
#include "core/replay.h"
#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "sqldb/state_diff.h"
#include "sqldb/value.h"
#include "workloads/workload.h"

namespace ultraverse::oracle {
namespace {

using core::RetroOp;
using sql::Value;

WhatIfCase Case(std::vector<std::string> history, RetroOp::Kind kind,
                uint64_t index, std::string new_sql = "") {
  WhatIfCase c;
  c.history = std::move(history);
  c.kind = kind;
  c.index = index;
  c.new_sql = std::move(new_sql);
  return c;
}

std::vector<std::string> BasicHistory() {
  return {
      "CREATE TABLE accounts (id INT PRIMARY KEY AUTO_INCREMENT,"
      " owner VARCHAR, balance INT)",
      "INSERT INTO accounts (owner, balance) VALUES ('alice', 100)",
      "INSERT INTO accounts (owner, balance) VALUES ('bob', 50)",
      "UPDATE accounts SET balance = balance + 10 WHERE owner = 'alice'",
      "INSERT INTO accounts (owner, balance) VALUES ('carol', 75)",
      "UPDATE accounts SET balance = balance - 25 WHERE owner = 'bob'",
      "DELETE FROM accounts WHERE balance > 105",
  };
}

// --- diff unit tests -------------------------------------------------------

TEST(StateDiffTest, IdenticalUniversesDiffClean) {
  auto a = Universe::Build(BasicHistory());
  auto b = Universe::Build(BasicHistory());
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  sql::StateDiff diff = sql::DiffDatabases(*(*a)->db(), *(*b)->db());
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST(StateDiffTest, DetectsPlantedRowDivergence) {
  auto a = Universe::Build(BasicHistory());
  auto b = Universe::Build(BasicHistory());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->db()
                  ->ExecuteSql("UPDATE accounts SET balance = 999"
                               " WHERE owner = 'carol'",
                               1000)
                  .ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*(*a)->db(), *(*b)->db(), "corrupted", "clean");
  ASSERT_FALSE(diff.equal());
  EXPECT_EQ(diff.divergences[0].table, "accounts");
  EXPECT_EQ(diff.divergences[0].kind, "row");
  // The report carries both sides' row values.
  EXPECT_NE(diff.divergences[0].detail.find("999"), std::string::npos)
      << diff.ToString();
  EXPECT_NE(diff.divergences[0].detail.find("75"), std::string::npos)
      << diff.ToString();
}

TEST(StateDiffTest, DetectsPlantedIndexDivergence) {
  std::vector<std::string> history = BasicHistory();
  history.push_back("CREATE INDEX by_owner ON accounts (owner)");
  auto a = Universe::Build(history);
  auto b = Universe::Build(history);
  ASSERT_TRUE(a.ok() && b.ok());
  // Same rows, different index: drop the index on one side only by
  // comparing against a history that never built it.
  auto c = Universe::Build(BasicHistory());
  ASSERT_TRUE(c.ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*(*a)->db(), *(*c)->db(), "indexed", "plain");
  ASSERT_FALSE(diff.equal());
  bool found_index = false;
  for (const auto& d : diff.divergences) found_index |= d.kind == "index";
  EXPECT_TRUE(found_index) << diff.ToString();
}

TEST(StateDiffTest, DetectsPlantedCounterDivergence) {
  auto a = Universe::Build(BasicHistory());
  auto b = Universe::Build(BasicHistory());
  ASSERT_TRUE(a.ok() && b.ok());
  // Burn an id on one side: counter diverges, rows do not.
  ASSERT_TRUE((*a)->db()
                  ->ExecuteSql("INSERT INTO accounts (owner, balance)"
                               " VALUES ('tmp', 1)",
                               1000)
                  .ok());
  ASSERT_TRUE(
      (*a)->db()->ExecuteSql("DELETE FROM accounts WHERE owner = 'tmp'", 1001)
          .ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*(*a)->db(), *(*b)->db(), "burned", "clean");
  ASSERT_FALSE(diff.equal());
  bool found_counter = false;
  for (const auto& d : diff.divergences) {
    found_counter |= d.kind == "auto-increment";
  }
  EXPECT_TRUE(found_counter) << diff.ToString();
}

TEST(StateDiffTest, DetectsCatalogDivergence) {
  std::vector<std::string> with_view = BasicHistory();
  with_view.push_back(
      "CREATE VIEW rich AS SELECT owner FROM accounts WHERE balance > 60");
  auto a = Universe::Build(with_view);
  auto b = Universe::Build(BasicHistory());
  ASSERT_TRUE(a.ok() && b.ok());
  sql::StateDiff diff = sql::DiffDatabases(*(*a)->db(), *(*b)->db());
  ASSERT_FALSE(diff.equal());
  bool found_view = false;
  for (const auto& d : diff.divergences) found_view |= d.kind == "view";
  EXPECT_TRUE(found_view) << diff.ToString();
}

TEST(OracleTest, CorruptHookIsDetectedByCheckCase) {
  WhatIfCase c = Case(BasicHistory(), RetroOp::Kind::kRemove, 3);
  ModeConfig config;
  config.name = "deps";
  OracleResult clean = CheckCase(c, config);
  EXPECT_TRUE(clean.ok) << (clean.error.empty() ? clean.diff.ToString()
                                                : clean.error);
  OracleResult corrupted = CheckCase(c, config, [](sql::Database* db) {
    ASSERT_TRUE(
        db->ExecuteSql("INSERT INTO accounts (owner, balance)"
                       " VALUES ('ghost', 1)",
                       9999)
            .ok());
  });
  EXPECT_FALSE(corrupted.ok);
  EXPECT_TRUE(corrupted.error.empty()) << corrupted.error;
  ASSERT_FALSE(corrupted.diff.divergences.empty());
  EXPECT_NE(corrupted.diff.ToString().find("ghost"), std::string::npos);
}

// --- mode-pair agreement on hand-written cases -----------------------------

TEST(OracleTest, BasicCasesAgreeAcrossAllModePairs) {
  std::vector<WhatIfCase> cases = {
      Case(BasicHistory(), RetroOp::Kind::kRemove, 2),
      Case(BasicHistory(), RetroOp::Kind::kRemove, 4),
      Case(BasicHistory(), RetroOp::Kind::kAdd, 3,
           "INSERT INTO accounts (owner, balance) VALUES ('dave', 500)"),
      Case(BasicHistory(), RetroOp::Kind::kChange, 4,
           "UPDATE accounts SET balance = balance * 2 WHERE owner = 'alice'"),
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    OracleResult r = CheckCaseAllModes(cases[i], StandardModeConfigs());
    EXPECT_TRUE(r.ok) << "case " << i << " [" << r.mode << "]: "
                      << (r.error.empty() ? r.diff.ToString() : r.error);
  }
}

TEST(OracleTest, RetroactiveTriggerRemovalAgrees) {
  // Removing the CREATE TRIGGER must also undo the trigger's side effects
  // on audit — this is the analyzer fix (CREATE TRIGGER *writes* its base
  // table's schema cell); before it, dependency pruning skipped the
  // trigger-dependent DML and left audit rows behind.
  std::vector<std::string> history = {
      "CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, qty INT)",
      "CREATE TABLE audit (n INT)",
      "INSERT INTO audit (n) VALUES (0)",
      "CREATE TRIGGER bump AFTER INSERT ON items FOR EACH ROW"
      " UPDATE audit SET n = n + 1",
      "INSERT INTO items (qty) VALUES (5)",
      "INSERT INTO items (qty) VALUES (7)",
      "UPDATE items SET qty = qty + 1 WHERE qty > 6",
  };
  WhatIfCase c = Case(history, RetroOp::Kind::kRemove, 4);
  OracleResult r = CheckCaseAllModes(c, StandardModeConfigs());
  EXPECT_TRUE(r.ok) << "[" << r.mode << "] "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

TEST(OracleTest, RetroactiveIndexAndViewRemovalAgrees) {
  std::vector<std::string> history = BasicHistory();
  history.insert(history.begin() + 3,
                 "CREATE INDEX by_owner ON accounts (owner)");
  history.push_back(
      "CREATE VIEW rich AS SELECT owner FROM accounts WHERE balance > 60");
  // Remove the CREATE INDEX (position 4).
  OracleResult r = CheckCaseAllModes(Case(history, RetroOp::Kind::kRemove, 4),
                                     StandardModeConfigs());
  EXPECT_TRUE(r.ok) << "[" << r.mode << "] "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
  // Remove the CREATE VIEW (last position).
  r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kRemove, history.size()),
      StandardModeConfigs());
  EXPECT_TRUE(r.ok) << "[" << r.mode << "] "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

// --- satellite regressions -------------------------------------------------

// AUTO_INCREMENT policy: a retroactively added INSERT allocates ids above
// the original history's end watermark, in every replay mode. Before the
// fix, the rebuild/full-naive paths seeded counters from the replayed
// prefix only, so the added row stole an id the original history had
// already handed out and modes disagreed.
TEST(OracleRegressionTest, AutoIncrementWatermarkPolicy) {
  WhatIfCase c = Case(
      BasicHistory(), RetroOp::Kind::kAdd, 2,
      "INSERT INTO accounts (owner, balance) VALUES ('early', 10)");
  OracleResult r = CheckCaseAllModes(c, StandardModeConfigs());
  EXPECT_TRUE(r.ok) << "[" << r.mode << "] "
                    << (r.error.empty() ? r.diff.ToString() : r.error);

  // The policy itself: the fresh row's id must sit above the end
  // watermark (3 rows inserted originally -> watermark 4).
  auto u = Universe::Build(c.history);
  ASSERT_TRUE(u.ok());
  auto op_stmt = sql::Parser::ParseStatement(c.new_sql);
  ASSERT_TRUE(op_stmt.ok());
  core::RetroOp op;
  op.kind = RetroOp::Kind::kAdd;
  op.index = c.index;
  op.new_stmt = *op_stmt;
  ASSERT_TRUE((*u)->RunFullNaive(op).ok());
  auto res = (*u)->db()->ExecuteSql(
      "SELECT id FROM accounts WHERE owner = 'early'", 10000);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0][0].AsInt(), 4) << "fresh id above the watermark";
}

// Hash-jumper blind spot the oracle caught on its first run: a hash-hit
// proves the rows reconverged, but AUTO_INCREMENT counters are not part of
// the table hash. Retroactively add an INSERT whose row the later suffix
// deletes: the replayed table reconverges (legitimate jump) while the
// alternate universe burned an id. The jump path must still raise the live
// watermark, or the next regular INSERT reuses an id the what-if universe
// already handed out.
TEST(OracleRegressionTest, HashJumpStillAdoptsAutoIncrementWatermark) {
  WhatIfCase c = Case(
      BasicHistory(), RetroOp::Kind::kAdd, 3,
      "INSERT INTO accounts (owner, balance) VALUES ('dave', 500)");
  // 'dave' (balance 500) trips the final "DELETE WHERE balance > 105":
  // rows reconverge, so the Hash-jumper legitimately fires...
  ModeConfig hj;
  hj.name = "deps+hashjump";
  hj.hash_jumper = true;
  OracleResult r = CheckCase(c, hj);
  EXPECT_TRUE(r.selective_stats.hash_jump)
      << "scenario regressed: expected the jump to fire";
  // ...and the counter must still advance past the burned id.
  EXPECT_TRUE(r.ok) << (r.error.empty() ? r.diff.ToString() : r.error);
}

// Planner off-by-one the fuzz smoke caught (seed 0xC0FFEE, case 173): for a
// retroactive *add* at index τ, the new query slots in before original
// commit τ — but the dependency closure skipped idx == τ unconditionally
// (correct only for remove/change, where the target occupies that slot).
// The added statement then executed against end-of-history state instead of
// the τ-1 state, and commit τ never replayed over the new row.
TEST(OracleRegressionTest, AddedStatementSeesInsertionPointState) {
  std::vector<std::string> history = {
      "CREATE TABLE t0 (id INT PRIMARY KEY AUTO_INCREMENT, c0 INT, "
      "c2 INT NOT NULL)",
      "INSERT INTO t0 (c0, c2) VALUES (-1, -72)",
      "UPDATE t0 SET c2 = 500",
  };
  // Added at 3, `UPDATE t0 SET c0 = c2` must read the pre-commit-3 value of
  // c2 (-72), and original commit 3 must replay after it. All selective
  // modes have to agree with naive ground truth (c0 = -72, c2 = 500).
  OracleResult r =
      CheckCaseAllModes(Case(history, RetroOp::Kind::kChange, 3,
                             "UPDATE t0 SET c0 = c2"),
                        StandardModeConfigs());
  // kChange at 3 replaces commit 3 outright; the interesting shape is kAdd:
  OracleResult add = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kAdd, 3, "UPDATE t0 SET c0 = c2"),
      StandardModeConfigs());
  EXPECT_TRUE(r.ok) << r.mode << ": "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
  EXPECT_TRUE(add.ok) << add.mode << ": "
                      << (add.error.empty() ? add.diff.ToString() : add.error);
}

// Companion shape from the same fuzz sweep (case 180): a retroactively
// added INSERT at τ must be overwritten by original commit τ's blind
// wildcard UPDATE, which replays after it.
TEST(OracleRegressionTest, CommitAtInsertionIndexReplaysOverAddedRow) {
  std::vector<std::string> history = {
      "CREATE TABLE t1 (c0 VARCHAR NOT NULL, c1 DOUBLE NOT NULL)",
      "UPDATE t1 SET c0 = 's5'",
  };
  OracleResult r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kAdd, 2,
           "INSERT INTO t1 (c0, c1) VALUES ('s17', 4.0)"),
      StandardModeConfigs());
  EXPECT_TRUE(r.ok) << r.mode << ": "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

// Mirror image of the previous shape (fuzz seed 99, case 62): the blind
// UPDATE is the *added* statement and the INSERT is the later original
// commit. At the insertion point the table is empty, so ground truth
// leaves the inserted row untouched — the staged row must be rolled back
// and re-inserted after the UPDATE, not overwritten in place. A pure
// INSERT joins the plan only through the overwriting-write accumulator
// (QueryRW::overwrites); an exemption for all INSERTs regressed this.
TEST(OracleRegressionTest, LaterInsertReplaysAfterAddedBlindUpdate) {
  std::vector<std::string> history = {
      "CREATE TABLE t0 (id INT PRIMARY KEY AUTO_INCREMENT, c0 INT, "
      "c1 INT, c2 INT)",
      "INSERT INTO t0 (c0, c1, c2) VALUES (-62, 80, -5)",
  };
  OracleResult r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kAdd, 2, "UPDATE t0 SET c0 = 26"),
      StandardModeConfigs());
  EXPECT_TRUE(r.ok) << r.mode << ": "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

// A what-if op can legitimately produce a rewritten history no engine can
// execute (fuzz seed 99, case 74): two AFTER UPDATE triggers form a cycle
// that the original history keeps dormant — every UPDATE matches zero rows
// — until retroactively removing a DELETE wakes it up and both replays
// trip the recursion limit. Agreeing on the rejection is agreement; only
// an *asymmetric* failure (one engine executes, the other aborts) counts
// as a divergence.
TEST(OracleRegressionTest, AgreedReplayRejectionIsNotADivergence) {
  std::vector<std::string> history = {
      "CREATE TABLE a (x INT)",
      "CREATE TABLE b (y INT)",
      "INSERT INTO a (x) VALUES (1)",
      "INSERT INTO b (y) VALUES (1)",
      "CREATE TRIGGER ta AFTER UPDATE ON a FOR EACH ROW"
      " UPDATE b SET y = y + 1",
      "CREATE TRIGGER tb AFTER UPDATE ON b FOR EACH ROW"
      " UPDATE a SET x = x + 1",
      "DELETE FROM a",
      "UPDATE a SET x = 5",
  };
  OracleResult r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kRemove, 7), StandardModeConfigs());
  EXPECT_TRUE(r.ok) << r.mode << ": "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
  EXPECT_TRUE(r.error.empty()) << r.error;
}

// Hash-jumper + DDL (fuzz seeds 99 and 7, shrunk to 3 statements each):
// retroactively removing a CREATE INDEX changes no row multiset, so every
// per-table digest probe "hits" immediately — but adoption is the step
// that drops the index from the live catalog. Jumping must be disabled
// when the replay plan contains DDL; otherwise the live database keeps an
// index the rewritten history never created.
TEST(OracleRegressionTest, RemovedCreateIndexSurvivesHashJump) {
  std::vector<std::string> history = {
      "CREATE TABLE t0 (c0 BOOL, c1 DOUBLE)",
      "CREATE INDEX idx0 ON t0 (c0)",
      "INSERT INTO t0 (c0, c1) VALUES (TRUE, -42.5)",
  };
  OracleResult r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kRemove, 2), StandardModeConfigs());
  EXPECT_TRUE(r.ok) << r.mode << ": "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

// Hash-jumper soundness: when the log carries no digest for a mutated
// table at the probe index, the probe must be a forced miss. Before the
// fix it fell back to comparing against the staged, selectively
// rolled-back τ-1 state — which already excludes the removed query's
// write, so the very first probe "matched" and the engine skipped
// adoption, leaving the live database unchanged.
TEST(OracleRegressionTest, HashJumperMissingBaselineForcesMiss) {
  sql::Database db;
  sql::QueryLog log;
  core::QueryAnalyzer analyzer;
  std::vector<std::string> history = {
      "CREATE TABLE t (k INT, v INT)",
      "INSERT INTO t (k, v) VALUES (1, 10)",
      "UPDATE t SET v = v + 5 WHERE k = 1",
  };
  for (const auto& text : history) {
    auto stmt = sql::Parser::ParseStatement(text);
    ASSERT_TRUE(stmt.ok());
    sql::LogEntry entry;
    entry.sql = text;
    entry.stmt = *stmt;
    sql::ExecContext ctx;
    ctx.StartRecording(&entry.nondet);
    uint64_t idx = log.size() + 1;
    ASSERT_TRUE(db.Execute(**stmt, idx, &ctx).ok());
    log.Append(std::move(entry));  // note: NO table_hashes logged
  }
  auto analysis = analyzer.AnalyzeLog(log);
  ASSERT_TRUE(analysis.ok());

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  opts.hash_jumper = true;  // on, but the timeline is empty
  core::RetroactiveEngine engine(
      &db, core::SnapshotOfLog(log, *analysis, &analyzer), opts);
  core::RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 2;  // remove the INSERT
  auto stats = engine.Execute(op);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_FALSE(stats->hash_jump)
      << "no logged digest -> probes must force-miss";
  auto res = db.ExecuteSql("SELECT k FROM t", 10000);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->rows.empty())
      << "removing the INSERT empties the table; a false hash-hit would "
         "have skipped adoption and left the row in place";
}

// Wide-integer exactness: int64 values above 2^53 are not representable
// as doubles; comparison and encoding must not round-trip through double.
TEST(OracleRegressionTest, ValueCompareExactAboveTwoPow53) {
  const int64_t p53 = int64_t(1) << 53;
  // 2^53 and 2^53+1 collapse to the same double; as ints they differ.
  EXPECT_LT(Value::Int(p53).Compare(Value::Int(p53 + 1)), 0);
  EXPECT_GT(Value::Int(p53 + 1).Compare(Value::Int(p53)), 0);
  EXPECT_LT(Value::Int(-p53 - 1).Compare(Value::Int(-p53)), 0);

  // int vs double at the boundary: double(2^53) == 2^53 exactly, and
  // 2^53+1 must compare strictly greater than it.
  EXPECT_EQ(Value::Int(p53).Compare(Value::Double(double(p53))), 0);
  EXPECT_GT(Value::Int(p53 + 1).Compare(Value::Double(double(p53))), 0);
  EXPECT_LT(Value::Double(double(p53)).Compare(Value::Int(p53 + 1)), 0);
  EXPECT_LT(Value::Int(-p53 - 1).Compare(Value::Double(double(-p53))), 0);
  EXPECT_FALSE(Value::Int(p53 + 1).Equals(Value::Double(double(p53))));

  // Encodings must be distinct too (row multisets and index keys hash the
  // encoding): before the fix both sides encoded via %.17g doubles and
  // 2^53 / 2^53+1 collided.
  EXPECT_NE(Value::Int(p53).Encode(), Value::Int(p53 + 1).Encode());
  EXPECT_NE(Value::Int(-p53).Encode(), Value::Int(-p53 - 1).Encode());
  // Numeric equality still means encoding equality across int/double.
  EXPECT_EQ(Value::Int(3).Encode(), Value::Double(3.0).Encode());
  const int64_t wide = int64_t(1) << 60;
  EXPECT_EQ(Value::Int(wide).Compare(Value::Double(double(wide))), 0);
  EXPECT_EQ(Value::Int(wide).Encode(), Value::Double(double(wide)).Encode());

  // End to end: rows distinguished only by a wide int must survive a
  // what-if round trip identically in all modes.
  std::vector<std::string> history = {
      "CREATE TABLE w (v INT)",
      "INSERT INTO w (v) VALUES (9007199254740992)",   // 2^53
      "INSERT INTO w (v) VALUES (9007199254740993)",   // 2^53 + 1
      "UPDATE w SET v = v + 1 WHERE v = 9007199254740993",
      "INSERT INTO w (v) VALUES (-9007199254740993)",  // -(2^53 + 1)
  };
  OracleResult r = CheckCaseAllModes(
      Case(history, RetroOp::Kind::kRemove, 2), StandardModeConfigs());
  EXPECT_TRUE(r.ok) << "[" << r.mode << "] "
                    << (r.error.empty() ? r.diff.ToString() : r.error);
}

// --- shrinker + repro format ----------------------------------------------

TEST(ShrinkerTest, ShrinksToMinimalReproducingPrefix) {
  // Synthetic failure predicate: the case "fails" while it still contains
  // the poison INSERT and the UPDATE that reads it. The shrinker must
  // strip all padding (leaving CREATE + the two live statements + the
  // removal target) and keep the retro index anchored on its statement.
  std::vector<std::string> history = {
      "CREATE TABLE t (k INT, v INT)",
      "INSERT INTO t (k, v) VALUES (1, 1)",
      "INSERT INTO t (k, v) VALUES (2, 42)",        // poison
      "INSERT INTO t (k, v) VALUES (3, 3)",
      "UPDATE t SET v = v + 100 WHERE v = 42",       // reads poison
      "INSERT INTO t (k, v) VALUES (4, 4)",
      "DELETE FROM t WHERE k = 1",
      "INSERT INTO t (k, v) VALUES (5, 5)",
      "UPDATE t SET v = 0 WHERE k = 5",
      "INSERT INTO t (k, v) VALUES (6, 6)",
      "INSERT INTO t (k, v) VALUES (7, 7)",
      "INSERT INTO t (k, v) VALUES (8, 8)",
  };
  WhatIfCase c = Case(history, RetroOp::Kind::kRemove, 3);
  auto still_fails = [](const WhatIfCase& cand) {
    if (!Universe::Build(cand.history).ok()) return false;
    bool poison = false, update = false;
    for (const auto& s : cand.history) {
      poison |= s.find("42)") != std::string::npos;
      update |= s.find("+ 100") != std::string::npos;
    }
    // The removal target must still be the poison INSERT.
    bool anchored = cand.index <= cand.history.size() &&
                    cand.history[cand.index - 1].find("42)") !=
                        std::string::npos;
    return poison && update && anchored;
  };
  ASSERT_TRUE(still_fails(c));
  WhatIfCase shrunk = ShrinkCaseIf(c, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_LE(shrunk.history.size(), 10u) << shrunk.ToReproSql();
  EXPECT_LT(shrunk.history.size(), history.size());
  // Greedy single-removal minimum for this predicate: CREATE (needed to
  // build) + poison INSERT + UPDATE.
  EXPECT_EQ(shrunk.history.size(), 3u) << shrunk.ToReproSql();
}

TEST(ReproFormatTest, RoundTripsThroughSqlFile) {
  WhatIfCase c =
      Case(BasicHistory(), RetroOp::Kind::kAdd, 3,
           "INSERT INTO accounts (owner, balance) VALUES ('dave', 500)");
  std::string text = c.ToReproSql();
  auto parsed = WhatIfCase::ParseReproSql(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->history, c.history);
  EXPECT_EQ(parsed->kind, c.kind);
  EXPECT_EQ(parsed->index, c.index);
  EXPECT_EQ(parsed->new_sql, c.new_sql);
  // And the parsed case is runnable.
  OracleResult r = CheckCase(*parsed, StandardModeConfigs()[0]);
  EXPECT_TRUE(r.ok) << (r.error.empty() ? r.diff.ToString() : r.error);

  EXPECT_FALSE(WhatIfCase::ParseReproSql("SELECT 1").ok())
      << "missing directive must be rejected";
}

// --- fuzz smoke ------------------------------------------------------------

// Deterministic-seed fuzz smoke: >= 200 histories, every standard mode
// pair checked against the full-naive oracle, zero divergences expected —
// and, with check_static, every history's dynamic analysis validated
// against the static summaries (dynamic ⊆ static, zero breaches).
// (The tier-1 gate runs this via `ctest -L oracle`.)
TEST(FuzzSmokeTest, TwoHundredHistoriesAllModePairsNoDivergence) {
  FuzzOptions options;
  options.seed = 0xC0FFEE;
  options.histories = 200;
  options.shrink = true;
  options.check_static = true;
  FuzzReport report = Fuzz(options);
  EXPECT_EQ(report.cases_run, 200u);
  EXPECT_GE(report.checks_run, 200u * StandardModeConfigs().size());
  EXPECT_EQ(report.containment_checked, 200u);
  std::string details;
  for (const auto& f : report.failures) {
    details += "case " + std::to_string(f.case_number) + " [" +
               f.result.mode + "]\n" + f.result.error + "\n" +
               f.shrunk.ToReproSql() + f.result.diff.ToString() + "\n";
  }
  EXPECT_EQ(report.divergences, 0u) << details;
  EXPECT_EQ(report.containment_violations, 0u) << details;
}

// --- critical path: edge-free pass vs the conflict DAG ----------------------

// Longest path through BuildConflictDag, the reference ConflictCriticalPath
// must reproduce exactly (it feeds the virtual-RTT model).
uint32_t LongestDagPath(const std::vector<const core::QueryRW*>& ordered) {
  std::vector<std::vector<uint32_t>> preds = core::BuildConflictDag(ordered);
  std::vector<uint32_t> depth(preds.size(), 1);
  uint32_t longest = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    for (uint32_t p : preds[i]) depth[i] = std::max(depth[i], depth[p] + 1);
    longest = std::max(longest, depth[i]);
  }
  return longest;
}

// The replay slots of a T+D retroactive remove of `index`.
std::vector<const core::QueryRW*> RemovePlanSlots(
    const std::vector<core::QueryRW>& analysis, uint64_t index) {
  core::ReplayPlan plan = core::ComputeReplayPlan(
      analysis, index, analysis[index - 1], /*target_occupies_slot=*/true,
      core::DependencyOptions{});
  std::vector<const core::QueryRW*> ordered;
  for (uint64_t idx : plan.replay_indices) {
    ordered.push_back(&analysis[idx - 1]);
  }
  return ordered;
}

TEST(CriticalPathTest, FuzzHistoriesMatchConflictDag) {
  size_t checked = 0;
  for (uint64_t n = 0; n < 200; ++n) {
    WhatIfCase c = GenerateCase(0xC0FFEE, n);
    auto u = Universe::Build(c.history);
    ASSERT_TRUE(u.ok()) << "case " << n << ": " << u.status().message();
    auto analysis = (*u)->Analysis();
    ASSERT_TRUE(analysis.ok()) << "case " << n;
    const std::vector<core::QueryRW>& a = **analysis;
    // The whole history as one replay sequence, then the T+D plan of a
    // remove at the case's index.
    std::vector<const core::QueryRW*> all;
    for (const auto& rw : a) all.push_back(&rw);
    EXPECT_EQ(core::ConflictCriticalPath(all), LongestDagPath(all))
        << "case " << n << " (whole history)";
    if (c.index >= 1 && c.index <= a.size()) {
      std::vector<const core::QueryRW*> slots = RemovePlanSlots(a, c.index);
      EXPECT_EQ(core::ConflictCriticalPath(slots), LongestDagPath(slots))
          << "case " << n << " (plan of remove " << c.index << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(CriticalPathTest, WorkloadPlansMatchConflictDagAndEngine) {
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    workload::Driver driver(workload::MakeWorkload(name, /*scale=*/1), &uv,
                            {});
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(300).ok()) << name;
    auto analysis = uv.EnsureAnalysis();
    ASSERT_TRUE(analysis.ok()) << name;
    RetroOp op;
    op.kind = RetroOp::Kind::kRemove;
    op.index = driver.retro_target_index();
    std::vector<const core::QueryRW*> slots =
        RemovePlanSlots(**analysis, op.index);
    const uint32_t expected = LongestDagPath(slots);
    EXPECT_EQ(core::ConflictCriticalPath(slots), expected) << name;
    // The engine charges the same critical path for the same plan.
    auto result = uv.WhatIfAnalyze(op, core::SystemMode::kTD);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().message();
    EXPECT_EQ(result->stats.replayed, slots.size()) << name;
    EXPECT_EQ(result->stats.critical_path, expected) << name;
  }
}

// --- strategy choice (ReplayMode::kAuto, DESIGN.md §7.1) -------------------

/// A counter table and `updates` read-modify-writes of one row: every
/// suffix statement depends on its predecessor, so the plan of any what-if
/// on it is the whole suffix.
std::vector<std::string> ChainHistory(size_t updates) {
  std::vector<std::string> h = {
      "CREATE TABLE counter (id INT PRIMARY KEY, v INT)",
      "INSERT INTO counter VALUES (1, 0)",
  };
  for (size_t i = 0; i < updates; ++i) {
    h.push_back("UPDATE counter SET v = v * 3 + " + std::to_string(i % 7) +
                " WHERE id = 1");
  }
  return h;
}

RetroOp CaseOp(const WhatIfCase& c) {
  RetroOp op;
  op.kind = c.kind;
  op.index = c.index;
  if (c.kind != RetroOp::Kind::kRemove) {
    op.new_stmt = *sql::Parser::ParseStatement(c.new_sql);
    op.new_sql = c.new_sql;
  }
  return op;
}

struct StrategyRun {
  std::string fingerprint;
  core::ReplayStats stats;
};

StrategyRun RunStrategy(const WhatIfCase& c, core::ReplayMode mode,
                        std::vector<uint64_t> forced = {}) {
  auto u = Universe::Build(c.history);
  EXPECT_TRUE(u.ok()) << u.status().ToString();
  const RetroOp op = CaseOp(c);
  ModeConfig config;
  config.mode = mode;
  config.forced_replay = std::move(forced);
  StrategyRun run;
  Status st = mode == core::ReplayMode::kFullNaive
                  ? (*u)->RunFullNaive(op, &run.stats)
                  : (*u)->RunSelective(op, config, &run.stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  run.fingerprint = core::FingerprintDatabase(*(*u)->db());
  return run;
}

TEST(StrategyTest, WholeSuffixHistoryAgreesAcrossStrategies) {
  for (auto [kind, sql] :
       {std::pair{RetroOp::Kind::kRemove, std::string()},
        std::pair{RetroOp::Kind::kChange,
                  std::string("UPDATE counter SET v = v + 100 WHERE id = 1")},
        std::pair{RetroOp::Kind::kAdd,
                  std::string("UPDATE counter SET v = 5 WHERE id = 1")}}) {
    WhatIfCase c = Case(ChainHistory(600), kind, 4, sql);
    StrategyRun selective = RunStrategy(c, core::ReplayMode::kSelective);
    StrategyRun naive = RunStrategy(c, core::ReplayMode::kFullNaive);
    StrategyRun chosen = RunStrategy(c, core::ReplayMode::kAuto);
    EXPECT_EQ(chosen.fingerprint, selective.fingerprint);
    EXPECT_EQ(chosen.fingerprint, naive.fingerprint);

    EXPECT_EQ(selective.stats.report.strategy.kind, "selective");
    EXPECT_FALSE(selective.stats.report.strategy.automatic);
    const obs::StrategyChoice& s = chosen.stats.report.strategy;
    EXPECT_EQ(s.kind, "naive");
    EXPECT_TRUE(s.automatic);
    // Decided at the first checkpoint, where all but the target slot (if
    // the op occupies one) joined the column closure.
    EXPECT_EQ(s.scanned, core::kFirstStrategyCheckpoint);
    EXPECT_GE(s.members + 1, core::kFirstStrategyCheckpoint);
    EXPECT_GT(double(s.members) / double(s.scanned), s.theta);
    EXPECT_LT(s.naive_est_us, s.selective_est_us);
    // Naive executes serially: its critical path is every executed slot.
    EXPECT_EQ(chosen.stats.replayed, naive.stats.replayed);
    EXPECT_EQ(chosen.stats.critical_path, chosen.stats.replayed);
    // The partial scan stays the plan phase ahead of the naive phases.
    const auto& phases = chosen.stats.report.phases;
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0].name, "plan");
    EXPECT_EQ(phases[1].name, "stage");
    EXPECT_EQ(phases[2].name, "replay");
  }
}

TEST(StrategyTest, OneClockTimesEveryPhaseOfBothStrategies) {
  // The report's phases are a what-if's only timing: each one has exactly
  // one trace span and one histogram sample of the same wall time, and
  // the total sample is their sum, on both strategies.
  WhatIfCase c = Case(ChainHistory(600), RetroOp::Kind::kRemove, 4);
  const std::vector<std::string> expected = {"plan", "stage", "replay",
                                             "publish"};
  for (auto [mode, kind] : {std::pair{core::ReplayMode::kSelective,
                                      std::string("selective")},
                            std::pair{core::ReplayMode::kAuto,
                                      std::string("naive")}}) {
    SCOPED_TRACE(kind);
    auto u = Universe::Build(c.history);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    ModeConfig config;
    config.mode = mode;
    const obs::Snapshot before = obs::Registry::Global().Collect();
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().Enable();
    core::ReplayStats stats;
    Status st = (*u)->RunSelective(CaseOp(c), config, &stats);
    obs::Tracer::Global().Disable();
    const std::string trace = obs::Tracer::Global().DumpJson();
    obs::Tracer::Global().Clear();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(stats.report.strategy.kind, kind);

    std::vector<std::string> names;
    for (const auto& p : stats.report.phases) names.push_back(p.name);
    ASSERT_EQ(names, expected);
    // Histogram growth between the two snapshots; stats.obs is collected
    // after the recorder finished.
    auto delta = [&](const std::string& name) {
      const obs::HistogramSnapshot* a = before.FindHistogram(name);
      const obs::HistogramSnapshot* b = stats.obs.FindHistogram(name);
      EXPECT_NE(b, nullptr) << name;
      if (b == nullptr) return std::pair<uint64_t, uint64_t>{0, 0};
      return std::pair<uint64_t, uint64_t>{
          b->count - (a ? a->count : 0), b->sum_us - (a ? a->sum_us : 0)};
    };
    for (const auto& p : stats.report.phases) {
      const auto [count, sum] = delta("uv.replay.phase." + p.name + "_us");
      EXPECT_EQ(count, 1u) << p.name;
      EXPECT_EQ(sum, p.wall_us) << p.name;
      const std::string begin =
          "{\"name\":\"replay." + p.name + "\",\"cat\":\"uv\",\"ph\":\"B\"";
      size_t spans = 0;
      for (size_t at = trace.find(begin); at != std::string::npos;
           at = trace.find(begin, at + 1)) {
        ++spans;
      }
      EXPECT_EQ(spans, 1u) << p.name;
    }
    const auto [count, sum] = delta("uv.replay.phase.total_us");
    EXPECT_EQ(count, 1u);
    EXPECT_EQ(sum, stats.report.WallMicros());
  }
}

TEST(StrategyTest, SuffixBelowFirstCheckpointNeverBails) {
  // 253 suffix positions: the closure never reaches a checkpoint.
  WhatIfCase c = Case(ChainHistory(254), RetroOp::Kind::kRemove, 4);
  StrategyRun chosen = RunStrategy(c, core::ReplayMode::kAuto);
  const obs::StrategyChoice& s = chosen.stats.report.strategy;
  EXPECT_EQ(s.kind, "selective");
  EXPECT_TRUE(s.automatic);
  EXPECT_EQ(s.scanned, 0u);
  EXPECT_EQ(chosen.fingerprint,
            RunStrategy(c, core::ReplayMode::kFullNaive).fingerprint);
}

TEST(StrategyTest, ForcedMembersKeepTheSelectivePath) {
  // --check-explain checks selective verdicts: forced members pin them.
  WhatIfCase c = Case(ChainHistory(600), RetroOp::Kind::kRemove, 4);
  StrategyRun forced = RunStrategy(c, core::ReplayMode::kAuto, {100});
  EXPECT_EQ(forced.stats.report.strategy.kind, "selective");
  EXPECT_FALSE(forced.stats.report.strategy.automatic);
  EXPECT_EQ(forced.fingerprint,
            RunStrategy(c, core::ReplayMode::kFullNaive).fingerprint);
}

TEST(StrategyTest, ExplainGateAcceptsANaiveStrategyReport) {
  // CheckCaseExplain runs kAuto at kFull: on this history the report it
  // validates is the naive strategy's, one replayed verdict per position.
  WhatIfCase c = Case(ChainHistory(300), RetroOp::Kind::kRemove, 4);
  auto u = Universe::Build(c.history);
  ASSERT_TRUE(u.ok());
  ModeConfig config;
  config.mode = core::ReplayMode::kAuto;
  config.explain = obs::ExplainLevel::kFull;
  core::ReplayStats stats;
  ASSERT_TRUE((*u)->RunSelective(CaseOp(c), config, &stats).ok());
  ASSERT_EQ(stats.report.strategy.kind, "naive");
  EXPECT_EQ(stats.report.txns.size(), stats.report.suffix_size);
  auto violations = CheckCaseExplain(c);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  EXPECT_TRUE(violations->empty()) << violations->front();
}

TEST(StrategyTest, ChoicePerWorkloadAtSeed7) {
  // Analyze-only what-ifs at zero RTT choose per workload (1500-txn
  // histories at dependency rate 0.3, the retro seed removed). tpcc's
  // closure covers the suffix; astore's covers ~72% of it, above θ ≈ 0.45.
  const std::pair<const char*, const char*> expected[] = {
      {"tpcc", "naive"},          {"astore", "naive"},
      {"seats", "selective"},     {"tatp", "selective"},
      {"epinions", "selective"},
  };
  for (const auto& [name, kind] : expected) {
    core::Ultraverse::Options options;
    options.rtt_micros = 0;
    core::Ultraverse uv(options);
    workload::Driver::Config config;
    config.dependency_rate = 0.3;
    config.seed = 7;
    workload::Driver driver(workload::MakeWorkload(name, 1), &uv, config);
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(1500).ok()) << name;
    auto snap = uv.SnapshotHistory();
    ASSERT_TRUE(snap.ok()) << name;
    RetroOp op;
    op.index = driver.retro_target_index();
    auto chosen = uv.WhatIfAnalyzeAt(**snap, op, core::SystemMode::kTD);
    auto naive = uv.WhatIfAnalyzeAt(**snap, op, core::SystemMode::kTD,
                                    /*full_naive=*/true);
    ASSERT_TRUE(chosen.ok() && naive.ok()) << name;
    EXPECT_EQ(chosen->fingerprint, naive->fingerprint) << name;
    EXPECT_EQ(chosen->stats.report.strategy.kind, kind) << name;
    EXPECT_TRUE(chosen->stats.report.strategy.automatic) << name;
  }
}

TEST(StrategyTest, FullNaiveChargesRttInAppCodeMode) {
  // D mode scales the interpreter's counted round trips by
  // critical_path / replayed; full-naive used to report a zero critical
  // path and so charged no RTT at all.
  core::Ultraverse uv;  // default 1 ms RTT
  workload::Driver::Config config;
  config.commit_mode = core::SystemMode::kD;
  workload::Driver driver(workload::MakeWorkload("tatp", 1), &uv, config);
  ASSERT_TRUE(driver.Setup().ok());
  ASSERT_TRUE(driver.RunHistory(20).ok());
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  RetroOp op;
  op.index = driver.retro_target_index();
  auto naive = uv.WhatIfAnalyzeAt(**snap, op, core::SystemMode::kD,
                                  /*full_naive=*/true);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->stats.critical_path, naive->stats.replayed);
  EXPECT_GT(naive->stats.virtual_rtt_micros, 0u);
}

TEST(FuzzSmokeTest, GenerationIsDeterministicPerSeed) {
  WhatIfCase a = GenerateCase(7, 3);
  WhatIfCase b = GenerateCase(7, 3);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.new_sql, b.new_sql);
  WhatIfCase other = GenerateCase(8, 3);
  EXPECT_NE(a.history, other.history);
}

}  // namespace
}  // namespace ultraverse::oracle
