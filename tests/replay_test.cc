#include <gtest/gtest.h>

#include "core/dep_graph.h"
#include "core/ultraverse.h"
#include "util/rng.h"

namespace ultraverse::core {
namespace {

// --- ComputeReplayPlan over hand-built analyses --------------------------------

QueryRW MakeRW(std::initializer_list<std::string> reads,
               std::initializer_list<std::string> writes) {
  QueryRW rw;
  for (const auto& r : reads) {
    rw.rc.Add(r);
    rw.rr.AddWildcard(r);
    rw.read_tables.insert(r.substr(0, r.find('.')));
  }
  for (const auto& w : writes) {
    rw.wc.Add(w);
    rw.wr.AddWildcard(w);
    rw.write_tables.insert(w.substr(0, w.find('.')));
  }
  return rw;
}

TEST(ReplayPlanTest, MotivatingExampleOfSection41) {
  // Q6..Q11 of Figure 6 (schema queries omitted): removing Q8 must replay
  // Q10 and Q11 but not Q9.
  std::vector<QueryRW> analysis;
  analysis.push_back(MakeRW({}, {"Users.uid"}));                    // Q6 alice
  analysis.push_back(MakeRW({}, {"Address.owner"}));                // Q7
  analysis.push_back(MakeRW({"Address.owner"}, {"Orders.oid"}));    // Q8
  analysis.push_back(MakeRW({}, {"Users.uid"}));                    // Q9 bob
  analysis.push_back(MakeRW({"Address.owner", "Orders.oid"},
                            {"Orders.oid"}));                       // Q10
  analysis.push_back(MakeRW({"Orders.oid"}, {"Stats.t"}));          // Q11
  ReplayPlan plan = ComputeReplayPlan(analysis, 3, analysis[2], true,
                                      DependencyOptions{});
  EXPECT_EQ(plan.replay_indices, (std::vector<uint64_t>{5, 6}))
      << "Q10 and Q11 replay; Q9 is skipped (§4.1)";
  EXPECT_TRUE(plan.mutated_tables.count("Orders"));
  EXPECT_TRUE(plan.mutated_tables.count("Stats"));
}

TEST(ReplayPlanTest, ReadThenWriterJoinsViaProp10) {
  // Q2 reads X (written by target), Q3 writes a cell Q2 reads -> Q3 must
  // replay so the consulted state evolves correctly (Prop. 9/10).
  std::vector<QueryRW> analysis;
  analysis.push_back(MakeRW({}, {"X.k"}));            // 1: target
  analysis.push_back(MakeRW({"X.k", "C.k"}, {"Y.k"}));  // 2: member, reads C
  analysis.push_back(MakeRW({}, {"C.k"}));            // 3: writer of C
  ReplayPlan plan = ComputeReplayPlan(analysis, 1, analysis[0], true,
                                      DependencyOptions{});
  EXPECT_EQ(plan.replay_indices, (std::vector<uint64_t>{2, 3}));
}

TEST(ReplayPlanTest, RowWisePrunesColumnWiseSurvivors) {
  std::vector<QueryRW> analysis;
  QueryRW target = MakeRW({}, {});
  target.wc.Add("T.v");
  target.wr.AddValue("T.id", "A");
  target.write_tables.insert("T");
  analysis.push_back(target);
  QueryRW same_col_other_row = MakeRW({}, {});
  same_col_other_row.rc.Add("T.v");
  same_col_other_row.rr.AddValue("T.id", "B");
  same_col_other_row.wc.Add("U.v");
  same_col_other_row.wr.AddValue("U.id", "B");
  same_col_other_row.write_tables.insert("U");
  analysis.push_back(same_col_other_row);

  DependencyOptions both;
  ReplayPlan plan = ComputeReplayPlan(analysis, 1, analysis[0], true, both);
  EXPECT_TRUE(plan.replay_indices.empty())
      << "column-dependent but row-independent: pruned (Theorem 20)";

  // row_wise off also drops the predicate-region veto (DESIGN.md §15)
  // that prunes it above ("A" vs "B" are point regions): the classic
  // column rules alone cannot.
  DependencyOptions col_only;
  col_only.row_wise = false;
  plan = ComputeReplayPlan(analysis, 1, analysis[0], true, col_only);
  EXPECT_EQ(plan.replay_indices.size(), 1u)
      << "column-wise alone cannot prune it";
}

TEST(ReplayPlanTest, DdlInPlanForcesSchemaRebuild) {
  std::vector<QueryRW> analysis;
  QueryRW ddl = MakeRW({}, {"_S.t"});
  ddl.is_ddl = true;
  analysis.push_back(ddl);
  ReplayPlan plan = ComputeReplayPlan(analysis, 1, analysis[0], true,
                                      DependencyOptions{});
  EXPECT_TRUE(plan.needs_schema_rebuild);
}

// --- Conflict DAG ----------------------------------------------------------------

TEST(ConflictDagTest, RowIndependentQueriesHaveNoEdges) {
  QueryRW a = MakeRW({}, {});
  a.wc.Add("T.v");
  a.wr.AddValue("T.id", "A");
  QueryRW b = a;
  b.wr.cols.clear();
  b.wr.AddValue("T.id", "B");
  auto dag = BuildConflictDag({&a, &b});
  EXPECT_TRUE(dag[0].empty());
  EXPECT_TRUE(dag[1].empty()) << "same column, different RI rows: parallel";
}

TEST(ConflictDagTest, WriteWriteSameCellOrders) {
  QueryRW a = MakeRW({}, {});
  a.wc.Add("T.v");
  a.wr.AddValue("T.id", "A");
  QueryRW b = a;
  auto dag = BuildConflictDag({&a, &b});
  ASSERT_EQ(dag[1].size(), 1u);
  EXPECT_EQ(dag[1][0], 0u);
}

TEST(ConflictDagTest, ReadAfterWriteAndWriteAfterRead) {
  QueryRW writer = MakeRW({}, {});
  writer.wc.Add("T.v");
  writer.wr.AddValue("T.id", "A");
  QueryRW reader = MakeRW({}, {});
  reader.rc.Add("T.v");
  reader.rr.AddValue("T.id", "A");
  reader.wc.Add("U.v");
  reader.wr.AddValue("U.id", "A");
  QueryRW writer2 = writer;
  auto dag = BuildConflictDag({&writer, &reader, &writer2});
  EXPECT_EQ(dag[1], (std::vector<uint32_t>{0})) << "RW edge";
  ASSERT_FALSE(dag[2].empty());
  EXPECT_TRUE(std::find(dag[2].begin(), dag[2].end(), 1u) != dag[2].end())
      << "WR edge: the later writer waits for the reader";
}

TEST(ConflictDagTest, WildcardWriteActsAsBarrier) {
  QueryRW v1 = MakeRW({}, {});
  v1.wc.Add("T.v");
  v1.wr.AddValue("T.id", "A");
  QueryRW wild = MakeRW({}, {});
  wild.wc.Add("T.v");
  wild.wr.AddWildcard("T.id");
  QueryRW v2 = MakeRW({}, {});
  v2.wc.Add("T.v");
  v2.wr.AddValue("T.id", "B");
  auto dag = BuildConflictDag({&v1, &wild, &v2});
  EXPECT_EQ(dag[1], (std::vector<uint32_t>{0}));
  EXPECT_EQ(dag[2], (std::vector<uint32_t>{1}))
      << "a value write after a wildcard write orders behind the barrier";
}

// --- Critical path: the edge-free pass against the DAG's longest path ---

uint32_t LongestDagPath(const std::vector<const QueryRW*>& ordered) {
  std::vector<std::vector<uint32_t>> preds = BuildConflictDag(ordered);
  std::vector<uint32_t> depth(preds.size(), 1);
  uint32_t longest = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    for (uint32_t p : preds[i]) depth[i] = std::max(depth[i], depth[p] + 1);
    longest = std::max(longest, depth[i]);
  }
  return longest;
}

QueryRW Access(bool write, const std::string& column, const std::string& key,
               std::initializer_list<std::string> values) {
  QueryRW rw;
  (write ? rw.wc : rw.rc).Add(column);
  RowSet& rows = write ? rw.wr : rw.rr;
  if (values.size() == 0) rows.AddWildcard(key);
  for (const auto& v : values) rows.AddValue(key, v);
  return rw;
}
QueryRW ValueWrite(std::initializer_list<std::string> ids) {
  return Access(true, "T.v", "T.id", ids);
}
QueryRW ValueRead(std::initializer_list<std::string> ids) {
  return Access(false, "T.v", "T.id", ids);
}
QueryRW WildWrite() { return Access(true, "T.v", "T.id", {}); }
QueryRW WildRead() { return Access(false, "T.v", "T.id", {}); }

void ExpectCriticalPathMatchesDag(const std::vector<QueryRW>& queries,
                                  uint32_t expected) {
  std::vector<const QueryRW*> ordered;
  for (const auto& q : queries) ordered.push_back(&q);
  EXPECT_EQ(LongestDagPath(ordered), expected);
  EXPECT_EQ(ConflictCriticalPath(ordered), expected);
}

TEST(ConflictCriticalPathTest, EmptyAndSingle) {
  ExpectCriticalPathMatchesDag({}, 0);
  ExpectCriticalPathMatchesDag({ValueWrite({"A"})}, 1);
}

TEST(ConflictCriticalPathTest, WildcardReadAfterValueWrites) {
  // A is written twice (depth 2), B once; the wildcard reader waits for the
  // deepest per-value writer.
  ExpectCriticalPathMatchesDag(
      {ValueWrite({"A"}), ValueWrite({"B"}), ValueWrite({"A"}), WildRead()},
      3);
  // A later write to B replaces the shallower B entry, not the deeper A.
  ExpectCriticalPathMatchesDag({ValueWrite({"A"}), ValueWrite({"A"}),
                                ValueWrite({"B"}), WildRead()},
                               3);
}

TEST(ConflictCriticalPathTest, ValueWriteAfterWildcardReader) {
  ExpectCriticalPathMatchesDag(
      {ValueWrite({"A"}), WildRead(), ValueWrite({"B"})}, 3);
  // Value writes do not clear wildcard readers: both B and C wait for it.
  ExpectCriticalPathMatchesDag({ValueWrite({"A"}), ValueWrite({"A"}),
                                WildRead(), ValueWrite({"B"}),
                                ValueWrite({"C"})},
                               4);
  // Value readers of other values do not order a value write.
  ExpectCriticalPathMatchesDag(
      {ValueWrite({"A"}), ValueRead({"A"}), ValueWrite({"B"})}, 2);
}

TEST(ConflictCriticalPathTest, QueryReadsAndWritesTheSameColumn) {
  QueryRW rmw = ValueRead({"A"});
  rmw.wc.Add("T.v");
  rmw.wr.AddValue("T.id", "A");
  ExpectCriticalPathMatchesDag({rmw, rmw, rmw}, 3);
  QueryRW wild_rmw = WildRead();
  wild_rmw.wc.Add("T.v");
  wild_rmw.wr.AddWildcard("T.id");
  ExpectCriticalPathMatchesDag({ValueWrite({"B"}), wild_rmw, ValueRead({"C"})},
                               3);
  // A wildcard read plus a value write by one query stays a wildcard
  // reader for later value writers.
  QueryRW mixed = WildRead();
  mixed.wc.Add("T.v");
  mixed.wr.AddValue("T.id", "A");
  ExpectCriticalPathMatchesDag({mixed, ValueWrite({"B"}), ValueRead({"B"})},
                               3);
}

TEST(ConflictCriticalPathTest, WildcardWriteActsAsBarrier) {
  // Readers and writers before the barrier all order behind it...
  ExpectCriticalPathMatchesDag({ValueWrite({"A"}), ValueWrite({"A"}),
                                ValueRead({"B"}), WildWrite(),
                                ValueWrite({"C"})},
                               4);
  // ...and it resets the column: a post-barrier wildcard reader depends on
  // the barrier and the writes after it only.
  ExpectCriticalPathMatchesDag({ValueWrite({"A"}), ValueWrite({"A"}),
                                ValueWrite({"A"}), WildWrite(),
                                ValueWrite({"B"}), WildRead()},
                               6);
  ExpectCriticalPathMatchesDag(
      {WildRead(), WildRead(), WildWrite(), ValueRead({"A"})}, 3);
}

TEST(ConflictCriticalPathTest, SchemaKeys) {
  // DDL on t, a query that reads t's schema and writes one row, another
  // DDL: schema pseudo-rows are wildcard and never match "t.<col>" keys.
  QueryRW ddl = Access(true, "_S.t", "_S.t", {});
  QueryRW dml = Access(false, "_S.t", "_S.t", {});
  dml.wc.Add("t.v");
  dml.wr.AddValue("t.id", "A");
  QueryRW other_row = Access(true, "t.v", "t.id", {"B"});
  ExpectCriticalPathMatchesDag({ddl, dml, other_row, dml, ddl}, 4);
  // A schema column whose only row info is a "t.<col>" key is wildcard.
  QueryRW schema_read = Access(false, "_S.t", "t.id", {"A"});
  ExpectCriticalPathMatchesDag({ddl, schema_read, ddl}, 3);
}

TEST(ConflictCriticalPathTest, ColumnWithoutRowInfoIsWildcard) {
  QueryRW bare_write;
  bare_write.wc.Add("T.v");
  QueryRW bare_read;
  bare_read.rc.Add("T.v");
  ExpectCriticalPathMatchesDag({ValueWrite({"A"}), ValueWrite({"B"}),
                                bare_read, ValueWrite({"C"}), bare_write,
                                ValueRead({"D"})},
                               5);
}

TEST(ConflictCriticalPathTest, RandomSequencesMatchDag) {
  // Two tables, two columns each, three RI values: random reads and writes
  // that are value-specific, wildcard or without row info.
  Rng rng(2024);
  const std::vector<std::string> columns = {"T.v", "T.w", "U.v", "_S.T"};
  for (int round = 0; round < 300; ++round) {
    std::vector<QueryRW> queries(size_t(rng.UniformInt(0, 24)));
    for (QueryRW& q : queries) {
      int accesses = int(rng.UniformInt(1, 3));
      for (int a = 0; a < accesses; ++a) {
        const std::string& col = columns[size_t(rng.UniformInt(0, 3))];
        bool write = rng.UniformInt(0, 1) == 1;
        (write ? q.wc : q.rc).Add(col);
        std::string key = col == "_S.T" ? col : col.substr(0, 1) + ".id";
        RowSet& rows = write ? q.wr : q.rr;
        switch (rng.UniformInt(0, 3)) {
          case 0:
            rows.AddWildcard(key);
            break;
          case 1:
            break;  // no row info
          default:
            rows.AddValue(key,
                          std::string(1, char('A' + rng.UniformInt(0, 2))));
        }
      }
    }
    std::vector<const QueryRW*> ordered;
    for (const auto& q : queries) ordered.push_back(&q);
    ASSERT_EQ(ConflictCriticalPath(ordered), LongestDagPath(ordered))
        << "round " << round;
  }
}

// --- Retroactive ADD and CHANGE end to end --------------------------------------

class RetroOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(uv_.ExecuteSql("CREATE TABLE acct (id INT PRIMARY KEY,"
                               " bal INT)")
                    .ok());
    ASSERT_TRUE(uv_.ExecuteSql("INSERT INTO acct VALUES (1, 100)").ok());
    ASSERT_TRUE(uv_.ExecuteSql("INSERT INTO acct VALUES (2, 100)").ok());
    deposit_ = uv_.log()->last_index() + 1;
    ASSERT_TRUE(
        uv_.ExecuteSql("UPDATE acct SET bal = bal + 50 WHERE id = 1").ok());
    ASSERT_TRUE(
        uv_.ExecuteSql("UPDATE acct SET bal = bal * 2 WHERE id = 1").ok());
  }

  int64_t Balance(int id) {
    auto r = uv_.db()->ExecuteSql(
        "SELECT bal FROM acct WHERE id = " + std::to_string(id), 5000);
    return r.ok() && !r->rows.empty() ? r->rows[0][0].AsInt() : -1;
  }

  Ultraverse uv_;
  uint64_t deposit_ = 0;
};

TEST_F(RetroOpsTest, RemoveRecomputesDownstreamArithmetic) {
  ASSERT_EQ(Balance(1), 300);
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = deposit_;
  ASSERT_TRUE(uv_.WhatIf(op, SystemMode::kTD).ok());
  EXPECT_EQ(Balance(1), 200) << "(100) * 2 without the +50 deposit";
  EXPECT_EQ(Balance(2), 100) << "account 2 untouched";
}

TEST_F(RetroOpsTest, ChangeReplacesTheQuery) {
  auto op = uv_.MakeOp(RetroOp::Kind::kChange, deposit_,
                       "UPDATE acct SET bal = bal + 10 WHERE id = 1");
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(uv_.WhatIf(*op, SystemMode::kTD).ok());
  EXPECT_EQ(Balance(1), 220) << "(100 + 10) * 2";
}

TEST_F(RetroOpsTest, AddInsertsBeforeIndex) {
  auto op = uv_.MakeOp(RetroOp::Kind::kAdd, deposit_,
                       "UPDATE acct SET bal = bal - 40 WHERE id = 1");
  ASSERT_TRUE(op.ok());
  ASSERT_TRUE(uv_.WhatIf(*op, SystemMode::kTD).ok());
  EXPECT_EQ(Balance(1), 220) << "(100 - 40 + 50) * 2";
}

TEST_F(RetroOpsTest, AllKindsAgreeAcrossModes) {
  struct Fresh {
    Ultraverse uv;
    uint64_t deposit = 0;
    Fresh() {
      EXPECT_TRUE(uv.ExecuteSql("CREATE TABLE acct (id INT PRIMARY KEY,"
                                " bal INT)")
                      .ok());
      EXPECT_TRUE(uv.ExecuteSql("INSERT INTO acct VALUES (1, 100)").ok());
      EXPECT_TRUE(uv.ExecuteSql("INSERT INTO acct VALUES (2, 100)").ok());
      deposit = uv.log()->last_index() + 1;
      EXPECT_TRUE(
          uv.ExecuteSql("UPDATE acct SET bal = bal + 50 WHERE id = 1").ok());
      EXPECT_TRUE(
          uv.ExecuteSql("UPDATE acct SET bal = bal * 2 WHERE id = 1").ok());
    }
  };
  for (auto kind : {RetroOp::Kind::kRemove, RetroOp::Kind::kChange,
                    RetroOp::Kind::kAdd}) {
    std::string fingerprints[4];
    SystemMode modes[4] = {SystemMode::kB, SystemMode::kT, SystemMode::kD,
                           SystemMode::kTD};
    for (int m = 0; m < 4; ++m) {
      Fresh fresh;
      Result<RetroOp> op =
          kind == RetroOp::Kind::kRemove
              ? fresh.uv.MakeOp(kind, fresh.deposit, "")
              : fresh.uv.MakeOp(
                    kind, fresh.deposit,
                    "UPDATE acct SET bal = bal + 7 WHERE id = 1");
      ASSERT_TRUE(op.ok());
      ASSERT_TRUE(fresh.uv.WhatIf(*op, modes[m]).ok());
      fingerprints[m] = fresh.uv.StateFingerprint();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
    EXPECT_EQ(fingerprints[0], fingerprints[2]);
    EXPECT_EQ(fingerprints[0], fingerprints[3]);
  }
}

TEST_F(RetroOpsTest, RetroactiveDdlTakesSchemaRebuildPath) {
  ASSERT_TRUE(uv_.ExecuteSql("CREATE TABLE extra (id INT PRIMARY KEY)").ok());
  uint64_t create_idx = uv_.log()->last_index();
  ASSERT_TRUE(uv_.ExecuteSql("INSERT INTO extra VALUES (1)").ok());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = create_idx;
  auto stats = uv_.WhatIf(op, SystemMode::kTD);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->schema_rebuild);
  EXPECT_EQ(uv_.db()->FindTable("extra"), nullptr)
      << "the retroactively-uncreated table is gone";
  EXPECT_EQ(Balance(1), 300) << "unrelated tables untouched";
}

// --- Serial vs critical-path RTT charge (property over RTT costs) ---------
//
// Slots always replay serially; Options::parallel only selects the RTT
// charge. The parameter, once the replay pool's worker count, is the
// per-query round-trip cost both charges multiply.

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismTest, ParallelEqualsSerial) {
  auto build = [] {
    auto uv = std::make_unique<Ultraverse>(Ultraverse::Options{});
    EXPECT_TRUE(uv->ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                    .ok());
    Rng rng(123);
    for (int i = 1; i <= 20; ++i) {
      EXPECT_TRUE(uv->ExecuteSql("INSERT INTO t VALUES (" +
                                 std::to_string(i) + ", 0)")
                      .ok());
    }
    for (int i = 0; i < 150; ++i) {
      int id = int(rng.UniformInt(1, 20));
      EXPECT_TRUE(uv->ExecuteSql("UPDATE t SET v = v + " +
                                 std::to_string(rng.UniformInt(1, 9)) +
                                 " WHERE id = " + std::to_string(id))
                      .ok());
    }
    return uv;
  };
  const uint64_t rtt = uint64_t(GetParam());
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = 5;
  auto run = [&](Ultraverse* uv, bool parallel) {
    auto history = uv->SnapshotHistory();
    EXPECT_TRUE(history.ok());
    RetroactiveEngine::Options eopts;
    eopts.parallel = parallel;
    eopts.rtt_micros_per_query = rtt;
    RetroactiveEngine engine(uv->db(), *history, eopts);
    auto stats = engine.Execute(op);
    EXPECT_TRUE(stats.ok()) << stats.status().message();
    return stats.ok() ? *stats : ReplayStats{};
  };

  auto serial = build();
  ReplayStats serial_stats = run(serial.get(), false);
  EXPECT_EQ(serial_stats.virtual_rtt_micros, rtt * serial_stats.replayed)
      << "serial charge: one round trip per executed slot";

  auto parallel = build();
  ReplayStats parallel_stats = run(parallel.get(), true);
  EXPECT_EQ(parallel_stats.virtual_rtt_micros,
            rtt * parallel_stats.critical_path)
      << "parallel charge: the conflict DAG's critical path";
  EXPECT_EQ(parallel_stats.replayed, serial_stats.replayed);
  // ...and that critical path is the longest path through the DAG of the
  // replayed slots.
  auto analysis = parallel->EnsureAnalysis();
  ASSERT_TRUE(analysis.ok());
  ReplayPlan plan = ComputeReplayPlan(**analysis, op.index,
                                      (**analysis)[op.index - 1], true,
                                      DependencyOptions{});
  std::vector<const QueryRW*> slots;
  for (uint64_t idx : plan.replay_indices) {
    slots.push_back(&(**analysis)[idx - 1]);
  }
  EXPECT_EQ(parallel_stats.critical_path, LongestDagPath(slots));

  EXPECT_EQ(serial->StateFingerprint(), parallel->StateFingerprint())
      << "rtt=" << rtt;
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ParallelDeterminismTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace ultraverse::core
