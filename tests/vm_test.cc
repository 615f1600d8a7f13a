// Compiled-execution engine tests (DESIGN.md §12): compiler golden
// disassembly, tree-vs-VM equivalence, plan-cache lifecycle (hits, DDL
// invalidation — including DDL nested in a procedure), cost-based
// access-path selection with its typed-probe guard, and a fixed-seed
// cross-engine fuzz smoke.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/database.h"
#include "sqldb/exec_engine.h"
#include "sqldb/parser.h"
#include "sqldb/state_diff.h"
#include "sqldb/vm/bytecode.h"
#include "sqldb/vm/compiler.h"
#include "sqldb/vm/plan_cache.h"
#include "sqldb/vm/vm.h"

namespace ultraverse {
namespace {

using sql::Database;
using sql::ExecContext;
using sql::ExecEngine;
using sql::ExecResult;
using sql::Parser;
using sql::StatementPtr;

StatementPtr Parse(const std::string& text) {
  auto r = Parser::ParseStatement(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return *r;
}

Result<ExecResult> Exec(Database* db, uint64_t commit,
                        const std::string& text) {
  ExecContext ctx;
  return db->Execute(*Parse(text), commit, &ctx);
}

void MustExec(Database* db, uint64_t commit, const std::string& text) {
  auto r = Exec(db, commit, text);
  ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
}

uint64_t CounterValue(const std::string& name) {
  // FindCounter points into the snapshot: keep it alive past the read.
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  const obs::CounterSnapshot* c = snap.FindCounter(name);
  return c ? c->value : 0;
}

// Runs `history` on two fresh databases, one per engine, and returns the
// deep state diff (empty diff = the engines agree).
sql::StateDiff DiffEngines(const std::vector<std::string>& history) {
  auto tree = oracle::Universe::Build(history, ExecEngine::kTree);
  auto vm = oracle::Universe::Build(history, ExecEngine::kVm);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  if (!tree.ok() || !vm.ok()) return sql::StateDiff{};
  return sql::DiffDatabases(*(*tree)->db(), *(*vm)->db(), "tree", "vm");
}

// --- compiler golden tests ---------------------------------------------------

// Compiles the WHERE clause of a SELECT against a two-column table and
// returns its disassembly.
std::string DisassembleWhere(const std::string& where_sql) {
  Database db;
  auto created =
      Exec(&db, 1, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  EXPECT_TRUE(created.ok());
  StatementPtr stmt = Parse("SELECT a FROM t WHERE " + where_sql);
  auto plan = sql::vm::Compile(db, *stmt);
  EXPECT_NE(plan, nullptr) << where_sql;
  if (!plan) return "";
  EXPECT_TRUE(plan->has_where);
  return sql::vm::Disassemble(plan->where);
}

TEST(VmCompilerGoldenTest, AndShortCircuitKleene) {
  // AND lowers to a short-circuit skeleton around a three-valued combine:
  // a false lhs jumps straight to `false` without evaluating the rhs, while
  // true/NULL fall through to kAnd3 for Kleene NULL handling.
  EXPECT_EQ(DisassembleWhere("a = 1 AND b = 2"),
            "0: load_col r0, col#0\n"
            "1: load_const r1, 1\n"
            "2: cmp r0, r0 = r1\n"
            "3: jump_if_false r0 -> 9\n"
            "4: load_col r1, col#1\n"
            "5: load_const r2, 2\n"
            "6: cmp r1, r1 = r2\n"
            "7: and3 r0, r0, r1\n"
            "8: jump -> 10\n"
            "9: load_bool r0, false\n"
            "10: ret r0\n");
}

TEST(VmCompilerGoldenTest, OrShortCircuitKleene) {
  EXPECT_EQ(DisassembleWhere("a = 1 OR b = 2"),
            "0: load_col r0, col#0\n"
            "1: load_const r1, 1\n"
            "2: cmp r0, r0 = r1\n"
            "3: jump_if_true r0 -> 9\n"
            "4: load_col r1, col#1\n"
            "5: load_const r2, 2\n"
            "6: cmp r1, r1 = r2\n"
            "7: or3 r0, r0, r1\n"
            "8: jump -> 10\n"
            "9: load_bool r0, true\n"
            "10: ret r0\n");
}

TEST(VmCompilerGoldenTest, InListWithNullAccumulator) {
  // IN (x, y): a NULL needle short-circuits to NULL; otherwise each
  // miss accumulates its comparison's NULL-ness so `1 IN (2, NULL)`
  // finishes as NULL rather than false.
  EXPECT_EQ(DisassembleWhere("a IN (1, 2)"),
            "0: load_col r0, col#0\n"
            "1: jump_if_null r0 -> 15\n"
            "2: load_bool r1, false\n"
            "3: load_const r2, 1\n"
            "4: cmp r3, r0 = r2\n"
            "5: jump_if_true r3 -> 13\n"
            "6: accum_null r1 <- r3\n"
            "7: load_const r2, 2\n"
            "8: cmp r3, r0 = r2\n"
            "9: jump_if_true r3 -> 13\n"
            "10: accum_null r1 <- r3\n"
            "11: in_finish r0, r1\n"
            "12: jump -> 16\n"
            "13: load_bool r0, true\n"
            "14: jump -> 16\n"
            "15: load_null r0\n"
            "16: ret r0\n");
}

TEST(VmCompilerTest, WhereVarAndNondetFlagsPopulated) {
  Database db;
  MustExec(&db, 1, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  auto plain = sql::vm::Compile(db, *Parse("SELECT a FROM t WHERE a = 1"));
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->where_has_var);
  EXPECT_FALSE(plain->where_has_nondet);

  auto with_var = sql::vm::Compile(db, *Parse("SELECT a FROM t WHERE a = x"));
  ASSERT_NE(with_var, nullptr);
  EXPECT_TRUE(with_var->where_has_var);

  auto with_nondet =
      sql::vm::Compile(db, *Parse("SELECT a FROM t WHERE a < NOW()"));
  ASSERT_NE(with_nondet, nullptr);
  EXPECT_TRUE(with_nondet->where_has_nondet);
}

TEST(VmCompilerTest, ViewsAreOutsideTheCompilableSubset) {
  Database db;
  MustExec(&db, 1, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExec(&db, 2, "CREATE VIEW v AS SELECT a FROM t");
  EXPECT_EQ(sql::vm::Compile(db, *Parse("SELECT a FROM v")), nullptr);
  EXPECT_NE(sql::vm::Compile(db, *Parse("SELECT a FROM t")), nullptr);
}

TEST(VmCompilerTest, FingerprintIsStructuralAndLiteralSensitive) {
  StatementPtr a = Parse("UPDATE t SET v = 1 WHERE id = 7");
  StatementPtr b = Parse("UPDATE  t  SET v = 1 WHERE id = 7");
  StatementPtr c = Parse("UPDATE t SET v = 1 WHERE id = 8");
  EXPECT_EQ(sql::vm::FingerprintStatement(*a),
            sql::vm::FingerprintStatement(*b));
  EXPECT_NE(sql::vm::FingerprintStatement(*a),
            sql::vm::FingerprintStatement(*c));
}

// --- batch-vs-row equivalence ------------------------------------------------

TEST(VmEquivalenceTest, DmlHistoryProducesIdenticalStates) {
  std::vector<std::string> history = {
      "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(32), "
      "balance INT)",
      "INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
      "INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
      "INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 40)",
      "UPDATE accounts SET balance = balance + 10 WHERE id = 2",
      "UPDATE accounts SET balance = balance * 2 WHERE balance < 120",
      "DELETE FROM accounts WHERE owner = 'carol'",
      "INSERT INTO accounts (id, owner, balance) VALUES (4, 'dave', 7)",
      "UPDATE accounts SET owner = 'DAVE' WHERE id = 4 AND balance = 7",
  };
  sql::StateDiff diff = DiffEngines(history);
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST(VmEquivalenceTest, SelectResultsMatchRowForRow) {
  std::vector<std::string> setup = {
      "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)",
      "INSERT INTO t (id, grp, v) VALUES (1, 1, 30)",
      "INSERT INTO t (id, grp, v) VALUES (2, 1, 10)",
      "INSERT INTO t (id, grp, v) VALUES (3, 2, 20)",
      "INSERT INTO t (id, grp, v) VALUES (4, 2, NULL)",
      "INSERT INTO t (id, grp, v) VALUES (5, 1, 10)",
  };
  std::vector<std::string> queries = {
      "SELECT id, v FROM t WHERE grp = 1 ORDER BY v DESC, id",
      "SELECT DISTINCT v FROM t ORDER BY v",
      "SELECT v FROM t ORDER BY id LIMIT 3",
      "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
      "SELECT id FROM t WHERE v IN (10, 20) ORDER BY id",
      "SELECT id FROM t WHERE v = NULL",
  };
  auto run = [&](ExecEngine engine) {
    auto db = std::make_unique<Database>();
    db->set_exec_engine(engine);
    uint64_t commit = 1;
    for (const auto& s : setup) MustExec(db.get(), commit++, s);
    std::vector<std::string> out;
    for (const auto& q : queries) {
      auto r = Exec(db.get(), commit++, q);
      EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      if (!r.ok()) continue;
      for (const auto& row : r->rows) {
        std::string line = q + " => ";
        for (const auto& v : row) line += v.ToSqlLiteral() + ",";
        out.push_back(line);
      }
    }
    return out;
  };
  EXPECT_EQ(run(ExecEngine::kTree), run(ExecEngine::kVm));
}

// --- plan cache --------------------------------------------------------------

TEST(VmPlanCacheTest, RepeatHitsAndDdlInvalidation) {
  obs::Registry::Global().ResetForTest();
  Database db;
  db.set_exec_engine(ExecEngine::kVm);
  uint64_t commit = 1;
  MustExec(&db, commit++, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  MustExec(&db, commit++, "INSERT INTO t (id, v) VALUES (1, 0)");

  uint64_t hit0 = CounterValue("uv.vm.plan_cache.hit");
  uint64_t miss0 = CounterValue("uv.vm.plan_cache.miss");

  MustExec(&db, commit++, "UPDATE t SET v = 5 WHERE id = 1");
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.miss"), miss0 + 1);
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.hit"), hit0);

  // The identical statement (re-parsed: plans key on the structural
  // fingerprint, not object identity) hits the cached plan.
  MustExec(&db, commit++, "UPDATE t SET v = 5 WHERE id = 1");
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.hit"), hit0 + 1);
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.miss"), miss0 + 1);

  // DDL bumps the schema version; the same fingerprint now misses and
  // recompiles against the new catalog.
  MustExec(&db, commit++, "ALTER TABLE t ADD COLUMN w INT");
  MustExec(&db, commit++, "UPDATE t SET v = 5 WHERE id = 1");
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.miss"), miss0 + 2);
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.hit"), hit0 + 1);

  EXPECT_GE(db.plan_cache()->size(), 2u);
}

TEST(VmPlanCacheTest, UncompilableStatementsAreNegativeCached) {
  obs::Registry::Global().ResetForTest();
  Database db;
  db.set_exec_engine(ExecEngine::kVm);
  uint64_t commit = 1;
  MustExec(&db, commit++, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  MustExec(&db, commit++, "CREATE VIEW big AS SELECT id FROM t WHERE v > 10");
  MustExec(&db, commit++, "INSERT INTO t (id, v) VALUES (1, 50)");

  uint64_t miss0 = CounterValue("uv.vm.plan_cache.miss");
  uint64_t hit0 = CounterValue("uv.vm.plan_cache.hit");
  // A view SELECT is outside the subset: first run caches the negative
  // verdict, the second hits it (still executing on the tree walker).
  MustExec(&db, commit++, "SELECT id FROM big");
  MustExec(&db, commit++, "SELECT id FROM big");
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.miss"), miss0 + 1);
  EXPECT_EQ(CounterValue("uv.vm.plan_cache.hit"), hit0 + 1);
}

TEST(VmPlanCacheTest, TreeFallbackCountsOnlyUncompiledStatements) {
  obs::Registry::Global().ResetForTest();
  Database db;
  db.set_exec_engine(ExecEngine::kVm);
  uint64_t commit = 1;
  MustExec(&db, commit++, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  MustExec(&db, commit++, "CREATE VIEW big AS SELECT id FROM t WHERE v > 10");
  // Compiled DML and SELECTs never reach the tree walker.
  MustExec(&db, commit++, "INSERT INTO t (id, v) VALUES (1, 50)");
  MustExec(&db, commit++, "UPDATE t SET v = v + 1 WHERE id = 1");
  MustExec(&db, commit++, "SELECT id FROM t WHERE v > 10");
  EXPECT_EQ(CounterValue("uv.vm.tree_fallback"), 0u);
  // A view SELECT is outside the subset: every run falls back, whether the
  // negative verdict was just compiled or came from the plan cache.
  MustExec(&db, commit++, "SELECT id FROM big");
  EXPECT_EQ(CounterValue("uv.vm.tree_fallback"), 1u);
  MustExec(&db, commit++, "SELECT id FROM big");
  EXPECT_EQ(CounterValue("uv.vm.tree_fallback"), 2u);
}

TEST(VmPlanCacheTest, CompileLatencyRecordedWhenTimingEnabled) {
  obs::Registry::Global().ResetForTest();
  obs::SetTiming(true);
  Database db;
  db.set_exec_engine(ExecEngine::kVm);
  uint64_t commit = 1;
  MustExec(&db, commit++, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  MustExec(&db, commit++, "INSERT INTO t (id, v) VALUES (1, 2)");
  obs::SetTiming(false);
  const obs::Snapshot snap = obs::Registry::Global().Collect();
  const obs::HistogramSnapshot* h = snap.FindHistogram("uv.vm.compile_us");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, 1u);
}

// --- DDL mid-history (plan-cache hazard regression) --------------------------

TEST(VmDdlHazardTest, AlterTableMidHistoryAgreesWithTree) {
  // The same UPDATE fingerprint runs before and after an ALTER widens the
  // table — a stale plan would scatter values into the wrong columns.
  std::vector<std::string> history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "INSERT INTO t (id, v) VALUES (2, 20)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "ALTER TABLE t ADD COLUMN w INT",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "INSERT INTO t (id, v, w) VALUES (3, 30, 300)",
      "UPDATE t SET w = 9 WHERE id = 2",
      "SELECT id, v, w FROM t ORDER BY id",
  };
  sql::StateDiff diff = DiffEngines(history);
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST(VmDdlHazardTest, DdlInsideProcedureInvalidatesPlans) {
  // The DDL executes from inside a procedure body, so the schema-version
  // bump must come from the nested Execute, not statement-level dispatch.
  std::vector<std::string> history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "CREATE PROCEDURE widen() BEGIN "
      "ALTER TABLE t ADD COLUMN w INT; "
      "UPDATE t SET w = 77 WHERE id = 1; END",
      "CALL widen()",
      "UPDATE t SET v = v + 1 WHERE id = 1",
      "INSERT INTO t (id, v, w) VALUES (2, 20, 200)",
  };
  sql::StateDiff diff = DiffEngines(history);
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST(VmDdlHazardTest, WhatIfReplayAcrossAlterAgrees) {
  // Full cross-engine oracle on a handcrafted case whose replay spans a
  // mid-history ALTER: build + selective what-if replay on both engines.
  oracle::WhatIfCase c;
  c.history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "INSERT INTO t (id, v) VALUES (2, 20)",
      "ALTER TABLE t ADD COLUMN w INT",
      "UPDATE t SET w = v * 2 WHERE id = 1",
      "UPDATE t SET v = v + 5 WHERE id = 2",
  };
  c.kind = core::RetroOp::Kind::kChange;
  c.index = 2;
  c.new_sql = "INSERT INTO t (id, v) VALUES (1, 11)";
  oracle::OracleResult r = oracle::CheckCaseExecDiff(c);
  EXPECT_TRUE(r.ok) << r.error << r.diff.ToString();
}

// --- access-path selection ---------------------------------------------------

class VmAccessPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetForTest();
    db_.set_exec_engine(ExecEngine::kVm);
    MustExec(&db_, commit_++,
             "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(32))");
    for (int i = 1; i <= 20; ++i) {
      MustExec(&db_, commit_++,
               "INSERT INTO t (id, name) VALUES (" + std::to_string(i) +
                   ", 'n" + std::to_string(i) + "')");
    }
    index0_ = CounterValue("uv.vm.access.index_path");
    scan0_ = CounterValue("uv.vm.access.scan_path");
  }

  Database db_;
  uint64_t commit_ = 1;
  uint64_t index0_ = 0, scan0_ = 0;
};

TEST_F(VmAccessPathTest, IntEqualityOnIndexedIntColumnProbes) {
  auto r = Exec(&db_, commit_++, "SELECT name FROM t WHERE id = 5");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0_ + 1);
  EXPECT_EQ(CounterValue("uv.vm.access.scan_path"), scan0_);
}

TEST_F(VmAccessPathTest, StringKeyAgainstIntColumnFallsBackToScan) {
  // '5' = id coerces under CompareSql but not under index-key encoding, so
  // the typed-probe guard must reject the index for a SELECT. Both paths
  // must still agree on the row.
  auto r = Exec(&db_, commit_++, "SELECT name FROM t WHERE id = '5'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0_);
  EXPECT_EQ(CounterValue("uv.vm.access.scan_path"), scan0_ + 1);

  Database tree;
  tree.set_exec_engine(ExecEngine::kTree);
  uint64_t commit = 1;
  MustExec(&tree, commit++,
           "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(32))");
  MustExec(&tree, commit++, "INSERT INTO t (id, name) VALUES (5, 'n5')");
  auto tr = Exec(&tree, commit++, "SELECT name FROM t WHERE id = '5'");
  ASSERT_TRUE(tr.ok());
  EXPECT_EQ(r->rows.size(), tr->rows.size());
}

TEST_F(VmAccessPathTest, HugeIntKeysAreNotProvablyExact) {
  // |key| >= 2^53: Int-vs-Double comparison semantics stop being provable
  // through the index encoding, so the SELECT takes the scan path.
  MustExec(&db_, commit_++,
           "INSERT INTO t (id, name) VALUES (9007199254740993, 'big')");
  uint64_t scan_before = CounterValue("uv.vm.access.scan_path");
  auto r = Exec(&db_, commit_++,
                "SELECT name FROM t WHERE id = 9007199254740993");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].ToDisplayString(), "big");
  EXPECT_EQ(CounterValue("uv.vm.access.scan_path"), scan_before + 1);
}

TEST_F(VmAccessPathTest, StringEqualityOnIndexedStringColumnProbes) {
  MustExec(&db_, commit_++, "CREATE INDEX idx_name ON t (name)");
  uint64_t index_before = CounterValue("uv.vm.access.index_path");
  auto r = Exec(&db_, commit_++, "SELECT id FROM t WHERE name = 'n7'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index_before + 1);
}

TEST_F(VmAccessPathTest, WritesUseTheSharedChooser) {
  // UPDATE/DELETE take whatever the shared cost chooser picks — the same
  // decision the tree walker's MatchRows makes, so no typed proof needed.
  auto r = Exec(&db_, commit_++, "UPDATE t SET name = 'x' WHERE id = 9");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected, 1u);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0_ + 1);

  auto d = Exec(&db_, commit_++, "DELETE FROM t WHERE id = 9");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->affected, 1u);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0_ + 2);
}

TEST_F(VmAccessPathTest, NondetWhereNeverProbesOnSelect) {
  uint64_t scan_before = CounterValue("uv.vm.access.scan_path");
  auto r = Exec(&db_, commit_++,
                "SELECT id FROM t WHERE id = 5 AND NOW() > 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0_);
  EXPECT_EQ(CounterValue("uv.vm.access.scan_path"), scan_before + 1);
}

// --- adaptive advisory indexing ----------------------------------------------

class VmAdaptiveIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_floor_ = sql::vm::AdvisoryIndexMinRows();
    sql::vm::SetAdvisoryIndexMinRows(8);
    obs::Registry::Global().ResetForTest();
    db_.set_exec_engine(ExecEngine::kVm);
    MustExec(&db_, commit_++, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    for (int i = 1; i <= 32; ++i) {
      MustExec(&db_, commit_++,
               "INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", " +
                   std::to_string(i % 8) + ")");
    }
  }
  void TearDown() override {
    sql::vm::SetAdvisoryIndexMinRows(saved_floor_);
  }

  Database db_;
  uint64_t commit_ = 1;
  size_t saved_floor_ = 0;
};

TEST_F(VmAdaptiveIndexTest, LargeEqualityScanBuildsAdvisoryIndexAndProbes) {
  uint64_t built0 = CounterValue("uv.vm.access.advisory_built");
  uint64_t index0 = CounterValue("uv.vm.access.index_path");
  auto r = Exec(&db_, commit_++, "SELECT id FROM t WHERE v = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(CounterValue("uv.vm.access.advisory_built"), built0 + 1);
  // The statement that triggers the build probes the new index itself.
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0 + 1);
  const sql::Table* t = db_.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->IsAdvisoryIndex(1));

  // Later executions reuse the index without rebuilding.
  auto r2 = Exec(&db_, commit_++, "SELECT id FROM t WHERE v = 5");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(CounterValue("uv.vm.access.advisory_built"), built0 + 1);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0 + 2);
}

TEST_F(VmAdaptiveIndexTest, WritesProbeAdvisoryIndexesOnlyUnderTheProof) {
  uint64_t built0 = CounterValue("uv.vm.access.advisory_built");
  uint64_t index0 = CounterValue("uv.vm.access.index_path");
  auto r = Exec(&db_, commit_++, "UPDATE t SET v = 100 WHERE v = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected, 4u);
  EXPECT_EQ(CounterValue("uv.vm.access.advisory_built"), built0 + 1);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0 + 1);

  // A coercing key ('2' against the INT column) fails the typed proof, so
  // the write scans — the same rows the tree walker's scan would match.
  uint64_t scan_before = CounterValue("uv.vm.access.scan_path");
  auto r2 = Exec(&db_, commit_++, "UPDATE t SET v = 101 WHERE v = '2'");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->affected, 4u);
  EXPECT_EQ(CounterValue("uv.vm.access.scan_path"), scan_before + 1);
  EXPECT_EQ(CounterValue("uv.vm.access.index_path"), index0 + 1);
}

TEST_F(VmAdaptiveIndexTest, UserCreateIndexPromotesTheAdvisoryIndex) {
  MustExec(&db_, commit_++, "SELECT id FROM t WHERE v = 3");
  const sql::Table* t = db_.FindTable("t");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->IsAdvisoryIndex(1));
  MustExec(&db_, commit_++, "CREATE INDEX idx_v ON t (v)");
  EXPECT_TRUE(t->HasIndex(1));
  EXPECT_FALSE(t->IsAdvisoryIndex(1));
}

TEST_F(VmAdaptiveIndexTest, AdvisoryIndexesAreInvisibleToTheStateDiff) {
  // The VM universe builds an advisory index mid-history; the tree
  // universe never does. The deep state diff (which compares logical
  // index sets) must still report the engines as identical.
  std::vector<std::string> history;
  history.push_back("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  for (int i = 1; i <= 32; ++i) {
    history.push_back("INSERT INTO t (id, v) VALUES (" + std::to_string(i) +
                      ", " + std::to_string(i % 8) + ")");
  }
  history.push_back("SELECT id FROM t WHERE v = 3");
  history.push_back("UPDATE t SET v = 9 WHERE v = 3");
  history.push_back("DELETE FROM t WHERE v = 5");
  sql::StateDiff diff = DiffEngines(history);
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

// --- cross-engine fuzz smoke -------------------------------------------------

TEST(VmExecDiffSmokeTest, TwoHundredFuzzedHistoriesZeroDivergences) {
  oracle::FuzzOptions options;
  options.seed = 1;
  options.histories = 200;
  options.exec_diff = true;
  options.modes.clear();  // cross-engine check only
  oracle::FuzzReport report = oracle::Fuzz(options);
  EXPECT_EQ(report.cases_run, 200u);
  EXPECT_EQ(report.checks_run, 200u);
  EXPECT_EQ(report.divergences, 0u) << report.failures.size()
                                    << " failures reported";
}

}  // namespace
}  // namespace ultraverse
