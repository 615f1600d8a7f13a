// Property-based / randomized differential tests of the framework's core
// invariants (DESIGN.md §4):
//  * replay equivalence: pruned (T+D) retroactive results equal the naive
//    full-rollback baseline on random histories and random retro ops,
//  * undo-journal point-in-time correctness against shadow snapshots,
//  * incremental table hash == from-scratch hash after random DML, after
//    switching hashing on mid-history, after rollback, and across clones
//    and table adoption,
//  * Mahif and Ultraverse agree on numeric-only flat histories.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/ultraverse.h"
#include "mahif/mahif.h"
#include "sqldb/database.h"
#include "util/rng.h"
#include "workloads/raw_history.h"

namespace ultraverse {
namespace {

using core::RetroOp;
using core::SystemMode;
using core::Ultraverse;

/// Random flat-SQL history over two tables with FK-ish row relations.
std::vector<std::string> RandomHistory(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::string> queries;
  int next_id = 1;
  std::vector<int> live;
  while (queries.size() < n) {
    switch (rng.UniformInt(0, 4)) {
      case 0: {
        int id = next_id++;
        queries.push_back("INSERT INTO acct VALUES (" + std::to_string(id) +
                          ", " + std::to_string(rng.UniformInt(0, 100)) +
                          ", " + std::to_string(rng.UniformInt(0, 1)) + ")");
        live.push_back(id);
        break;
      }
      case 1:
        if (live.empty()) continue;
        queries.push_back(
            "UPDATE acct SET bal = bal + " +
            std::to_string(rng.UniformInt(-9, 9)) + " WHERE id = " +
            std::to_string(live[size_t(rng.Next() % live.size())]));
        break;
      case 2:
        if (live.empty()) continue;
        queries.push_back(
            "UPDATE acct SET flag = " + std::to_string(rng.UniformInt(0, 1)) +
            " WHERE bal > " + std::to_string(rng.UniformInt(0, 120)));
        break;
      case 3:
        if (live.empty()) continue;
        queries.push_back("INSERT INTO led VALUES (" +
                          std::to_string(int(queries.size())) + ", " +
                          std::to_string(live[size_t(rng.Next() %
                                                     live.size())]) +
                          ", " + std::to_string(rng.UniformInt(1, 50)) + ")");
        break;
      default:
        queries.push_back("DELETE FROM led WHERE amt > " +
                          std::to_string(rng.UniformInt(40, 49)));
        break;
    }
  }
  return queries;
}

std::unique_ptr<Ultraverse> BuildRandom(uint64_t seed, size_t n) {
  auto uv = std::make_unique<Ultraverse>();
  EXPECT_TRUE(
      uv->ExecuteSql("CREATE TABLE acct (id INT PRIMARY KEY, bal INT,"
                     " flag INT)")
          .ok());
  EXPECT_TRUE(uv->ExecuteSql("CREATE TABLE led (lid INT PRIMARY KEY,"
                             " aid INT, amt INT)")
                  .ok());
  for (const auto& q : RandomHistory(seed, n)) {
    auto r = uv->ExecuteSql(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  }
  return uv;
}

class ReplayEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayEquivalenceTest, PrunedEqualsNaiveOnRandomHistories) {
  uint64_t seed = GetParam();
  Rng rng(seed * 31 + 1);
  for (int round = 0; round < 3; ++round) {
    uint64_t tau = uint64_t(rng.UniformInt(3, 90));
    int kind_pick = int(rng.UniformInt(0, 2));
    RetroOp::Kind kind = kind_pick == 0   ? RetroOp::Kind::kRemove
                         : kind_pick == 1 ? RetroOp::Kind::kChange
                                          : RetroOp::Kind::kAdd;
    std::string new_sql = "UPDATE acct SET bal = bal + 5 WHERE id = " +
                          std::to_string(rng.UniformInt(1, 10));

    auto naive = BuildRandom(seed, 100);
    auto pruned = BuildRandom(seed, 100);
    auto op_n = naive->MakeOp(kind, tau + 2, new_sql);  // +2 skips the DDL
    auto op_p = pruned->MakeOp(kind, tau + 2, new_sql);
    ASSERT_TRUE(op_n.ok() && op_p.ok());
    auto s_n = naive->WhatIf(*op_n, SystemMode::kB);
    auto s_p = pruned->WhatIf(*op_p, SystemMode::kTD);
    ASSERT_TRUE(s_n.ok()) << s_n.status().ToString();
    ASSERT_TRUE(s_p.ok()) << s_p.status().ToString();
    EXPECT_EQ(naive->StateFingerprint(), pruned->StateFingerprint())
        << "seed=" << seed << " round=" << round << " tau=" << tau
        << " kind=" << kind_pick;
    EXPECT_LE(s_p->replayed, s_n->replayed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayEquivalenceTest,
                         ::testing::Range(uint64_t(1), uint64_t(11)));

class JournalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalPropertyTest, RollbackToIndexMatchesShadowSnapshots) {
  uint64_t seed = GetParam();
  sql::Database db;
  ASSERT_TRUE(
      db.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)", 1).ok());
  Rng rng(seed);
  // Shadow: remember the table contents after every commit.
  std::map<uint64_t, std::string> snapshots;
  auto snapshot = [&] {
    std::vector<std::string> rows;
    db.FindTable("t")->Scan([&](sql::RowId, const sql::Row& r) {
      rows.push_back(sql::EncodeRow(r));
      return true;
    });
    std::sort(rows.begin(), rows.end());
    std::string s;
    for (auto& r : rows) s += r + ";";
    return s;
  };
  uint64_t commit = 1;
  snapshots[commit] = snapshot();
  int next_id = 1;
  for (int i = 0; i < 120; ++i) {
    ++commit;
    std::string q;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        q = "INSERT INTO t VALUES (" + std::to_string(next_id++) + ", 0)";
        break;
      case 1:
        q = "UPDATE t SET v = v + 1 WHERE id <= " +
            std::to_string(rng.UniformInt(1, next_id));
        break;
      default:
        q = "DELETE FROM t WHERE id = " +
            std::to_string(rng.UniformInt(1, next_id));
        break;
    }
    ASSERT_TRUE(db.ExecuteSql(q, commit).ok()) << q;
    snapshots[commit] = snapshot();
  }
  // Roll back to random points and compare against the shadow.
  std::vector<uint64_t> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back(uint64_t(rng.UniformInt(1, int64_t(commit))));
  }
  std::sort(points.rbegin(), points.rend());  // rollback must go backwards
  for (uint64_t p : points) {
    db.RollbackToIndex(p);
    EXPECT_EQ(snapshot(), snapshots[p]) << "rollback to " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalPropertyTest,
                         ::testing::Range(uint64_t(1), uint64_t(7)));

/// Random single-row INSERT/UPDATE/DELETE traffic on `table` (schema
/// `id INT PRIMARY KEY, v INT`), tagged with consecutive commit indexes.
struct RandomDml {
  explicit RandomDml(uint64_t seed) : rng(seed) {}

  void Run(sql::Database* db, const std::string& table, int n) {
    for (int i = 0; i < n; ++i) {
      std::string q;
      switch (rng.UniformInt(0, 2)) {
        case 0:
          q = "INSERT INTO " + table + " VALUES (" +
              std::to_string(next_id++) + ", " +
              std::to_string(rng.UniformInt(0, 9)) + ")";
          break;
        case 1:
          q = "UPDATE " + table + " SET v = " +
              std::to_string(rng.UniformInt(0, 9)) +
              " WHERE id = " + std::to_string(rng.UniformInt(1, next_id));
          break;
        default:
          q = "DELETE FROM " + table + " WHERE id = " +
              std::to_string(rng.UniformInt(1, next_id));
          break;
      }
      ASSERT_TRUE(db->ExecuteSql(q, commit++).ok()) << q;
    }
  }

  Rng rng;
  int next_id = 1;
  uint64_t commit = 1;
};

Digest256 FromScratchHash(const sql::Table& t) {
  TableHash rebuilt;
  t.Scan([&](sql::RowId, const sql::Row& row) {
    rebuilt.AddRow(sql::EncodeRow(row));
    return true;
  });
  return rebuilt.value();
}

/// Every table of a hashing database keeps a digest equal to a
/// from-scratch rebuild over its live rows.
void ExpectDigestsExact(sql::Database& db) {
  ASSERT_TRUE(db.table_hashing());
  for (const auto& name : db.TableNames()) {
    const sql::Table* t = db.FindTable(name);
    ASSERT_NE(t->table_hash(), nullptr) << name;
    EXPECT_EQ(t->table_hash()->value(), FromScratchHash(*t)) << name;
  }
}

void CreateTables(sql::Database* db, RandomDml* dml,
                  const std::vector<std::string>& names) {
  for (const auto& name : names) {
    ASSERT_TRUE(db->ExecuteSql("CREATE TABLE " + name +
                                   " (id INT PRIMARY KEY, v INT)",
                               dml->commit++)
                    .ok());
  }
}

TEST(TableHashPropertyTest, IncrementalEqualsRebuiltAfterRandomDml) {
  sql::Database db;
  db.SetTableHashing(true);
  RandomDml dml(99);
  CreateTables(&db, &dml, {"t"});
  dml.Run(&db, "t", 300);
  ExpectDigestsExact(db);
}

TEST(TableHashPropertyTest, SwitchedOnMidHistoryThenMoreDml) {
  sql::Database db;
  RandomDml dml(7);
  CreateTables(&db, &dml, {"a", "b"});
  dml.Run(&db, "a", 150);
  dml.Run(&db, "b", 50);
  EXPECT_EQ(db.FindTable("a")->table_hash(), nullptr)
      << "a database without hashing keeps no digest";
  db.SetTableHashing(true);
  ExpectDigestsExact(db);
  dml.Run(&db, "a", 150);
  CreateTables(&db, &dml, {"c"});
  dml.Run(&db, "c", 40);
  ExpectDigestsExact(db);
  db.SetTableHashing(false);
  EXPECT_EQ(db.FindTable("c")->table_hash(), nullptr);
}

TEST(TableHashPropertyTest, ExactAfterMaskedAndPointInTimeRollback) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    sql::Database db;
    db.SetTableHashing(true);
    RandomDml dml(seed);
    CreateTables(&db, &dml, {"t"});
    dml.Run(&db, "t", 200);
    // Masked (column-selective) undo of a random subset of commits.
    std::set<uint64_t> undo;
    for (int i = 0; i < 40; ++i) {
      undo.insert(uint64_t(dml.rng.UniformInt(2, int(dml.commit) - 1)));
    }
    db.RollbackCommitsInTables(undo, {"t"});
    ExpectDigestsExact(db);
    dml.Run(&db, "t", 50);
    ExpectDigestsExact(db);
    db.RollbackToIndex(uint64_t(dml.rng.UniformInt(2, int(dml.commit) - 1)));
    ExpectDigestsExact(db);
  }
}

TEST(TableHashPropertyTest, ExactAcrossCloneCloneTablesAndAdoption) {
  sql::Database live;
  live.SetTableHashing(true);
  RandomDml dml(31);
  CreateTables(&live, &dml, {"a", "b"});
  dml.Run(&live, "a", 120);
  dml.Run(&live, "b", 120);

  std::unique_ptr<sql::Database> clone = live.Clone();
  ExpectDigestsExact(*clone);
  dml.Run(clone.get(), "a", 60);
  ExpectDigestsExact(*clone);
  ExpectDigestsExact(live);  // CoW: the clone's writes stay its own

  std::unique_ptr<sql::Database> staged = live.CloneTables({"a"});
  staged->SetReadFallback(&live, nullptr);
  dml.Run(staged.get(), "a", 60);
  dml.Run(staged.get(), "b", 30);  // faults b in from the base
  ExpectDigestsExact(*staged);

  // Adoption from a hashing clone, then from an unhashed database rebuilt
  // from scratch (the rebuild-from-log staging path without Hash-jumper).
  ASSERT_TRUE(live.AdoptTables(*staged, {"a", "b"}).ok());
  ExpectDigestsExact(live);
  sql::Database rebuilt;
  RandomDml other(32);
  CreateTables(&rebuilt, &other, {"a", "b"});
  other.Run(&rebuilt, "a", 100);
  other.Run(&rebuilt, "b", 100);
  ASSERT_EQ(rebuilt.FindTable("a")->table_hash(), nullptr);
  ASSERT_TRUE(live.AdoptTables(rebuilt, {"a", "b"}).ok());
  ExpectDigestsExact(live);
  dml.Run(&live, "a", 40);
  ExpectDigestsExact(live);

  // The reverse direction: an unhashed database adopts without digests.
  ASSERT_TRUE(rebuilt.AdoptTables(live, {"a"}).ok());
  EXPECT_EQ(rebuilt.FindTable("a")->table_hash(), nullptr);
}

class MahifAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MahifAgreementTest, MahifMatchesUltraverseOnFlatNumericHistories) {
  // On histories inside Mahif's supported dialect, its alternate universe
  // must equal Ultraverse's (it is slow, not wrong, on flat SQL).
  workload::RawHistory h =
      workload::MakeRawHistory("tpcc", 60, 0.5, GetParam());
  // Ultraverse side.
  Ultraverse uv;
  for (const auto& ddl : h.schema_sql) ASSERT_TRUE(uv.ExecuteSql(ddl).ok());
  for (const auto& q : h.queries) ASSERT_TRUE(uv.ExecuteSql(q).ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = uint64_t(h.schema_sql.size()) + h.retro_index;
  ASSERT_TRUE(uv.WhatIf(op, SystemMode::kTD).ok());

  // Mahif side.
  mahif::MahifEngine engine;
  std::vector<std::string> all = h.schema_sql;
  all.insert(all.end(), h.queries.begin(), h.queries.end());
  ASSERT_TRUE(engine.LoadHistory(all).ok());
  ASSERT_TRUE(
      engine.WhatIfRemove(uint64_t(h.schema_sql.size()) + h.retro_index).ok());
  auto mahif_rows = engine.FinalState(h.check_table);
  ASSERT_TRUE(mahif_rows.ok());

  // Compare numeric projections.
  std::vector<std::vector<double>> uv_rows;
  uv.db()->FindTable(h.check_table)->Scan([&](sql::RowId, const sql::Row& r) {
    std::vector<double> row;
    for (const auto& v : r) row.push_back(v.AsDouble());
    uv_rows.push_back(std::move(row));
    return true;
  });
  std::sort(uv_rows.begin(), uv_rows.end());
  EXPECT_EQ(uv_rows, *mahif_rows) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MahifAgreementTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace ultraverse
