#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>

#include "core/rw_sets.h"
#include "sqldb/parser.h"

namespace ultraverse::core {
namespace {

/// Fixture that feeds statements through a QueryAnalyzer as committed
/// entries (so registry/alias/merge state evolves like in production).
class RwSetsTest : public ::testing::Test {
 protected:
  QueryRW Analyze(const std::string& sql_text) {
    auto stmt = sql::Parser::ParseStatement(sql_text);
    EXPECT_TRUE(stmt.ok()) << sql_text << ": " << stmt.status().ToString();
    sql::LogEntry entry;
    entry.stmt = *stmt;
    entry.sql = sql_text;
    auto rw = analyzer_.AnalyzeEntry(entry);
    EXPECT_TRUE(rw.ok()) << sql_text << ": " << rw.status().ToString();
    return rw.ok() ? *rw : QueryRW{};
  }

  QueryAnalyzer analyzer_;
};

TEST_F(RwSetsTest, CreateTableWritesSchemaEntry) {
  QueryRW rw = Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  EXPECT_TRUE(rw.wc.Contains("_S.t"));
  EXPECT_TRUE(rw.rc.Contains("_S.t"));
  EXPECT_TRUE(rw.is_ddl);
}

TEST_F(RwSetsTest, CreateTableWithFkReadsReferencedSchema) {
  Analyze("CREATE TABLE parent (id INT PRIMARY KEY)");
  QueryRW rw = Analyze(
      "CREATE TABLE child (id INT PRIMARY KEY, pid INT,"
      " FOREIGN KEY (pid) REFERENCES parent(id))");
  EXPECT_TRUE(rw.rc.Contains("_S.parent")) << "Appendix A CREATE policy";
  EXPECT_TRUE(rw.wc.Contains("_S.child"));
}

TEST_F(RwSetsTest, InsertWritesAllColumnsReadsSchemaAndAutoIncKey) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)");
  QueryRW rw = Analyze("INSERT INTO t (v) VALUES (5)");
  EXPECT_TRUE(rw.wc.Contains("t.id"));
  EXPECT_TRUE(rw.wc.Contains("t.v"));
  EXPECT_TRUE(rw.rc.Contains("_S.t"));
  EXPECT_TRUE(rw.rc.Contains("t.id"))
      << "AUTO_INCREMENT pk is implicitly read (Appendix A)";
  EXPECT_FALSE(rw.is_ddl);
}

TEST_F(RwSetsTest, SelectReadsColumnsWritesNothing) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)");
  QueryRW rw = Analyze("SELECT a FROM t WHERE b = 3");
  EXPECT_TRUE(rw.rc.Contains("t.a"));
  EXPECT_TRUE(rw.rc.Contains("t.b"));
  EXPECT_FALSE(rw.rc.Contains("t.id"));
  EXPECT_TRUE(rw.wc.empty());
}

TEST_F(RwSetsTest, UpdateWritesAssignedReadsWhereAndRhs) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c INT)");
  QueryRW rw = Analyze("UPDATE t SET a = b + 1 WHERE c = 2");
  EXPECT_TRUE(rw.wc.Contains("t.a"));
  EXPECT_FALSE(rw.wc.Contains("t.b"));
  EXPECT_TRUE(rw.rc.Contains("t.b"));
  EXPECT_TRUE(rw.rc.Contains("t.c"));
}

TEST_F(RwSetsTest, DeleteWritesAllColumns) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, a INT)");
  QueryRW rw = Analyze("DELETE FROM t WHERE a = 1");
  EXPECT_TRUE(rw.wc.Contains("t.id"));
  EXPECT_TRUE(rw.wc.Contains("t.a"));
}

TEST_F(RwSetsTest, UpdateOfFkReferencedColumnTouchesReferencingTables) {
  Analyze("CREATE TABLE parent (id INT PRIMARY KEY, tag INT)");
  Analyze("CREATE TABLE child (cid INT PRIMARY KEY, pid INT,"
          " FOREIGN KEY (pid) REFERENCES parent(id))");
  QueryRW rw = Analyze("UPDATE parent SET id = 9 WHERE id = 1");
  EXPECT_TRUE(rw.wc.Contains("child.pid"))
      << "the red-arrow FK dependency of §4.2";
}

TEST_F(RwSetsTest, RowWiseExtractsRiValueFromWhere) {
  Analyze("CREATE TABLE users (uid VARCHAR(16) PRIMARY KEY, email VARCHAR)");
  QueryRW rw = Analyze("UPDATE users SET email = 'x' WHERE uid = 'alice01'");
  auto it = rw.wr.cols.find("users.uid");
  ASSERT_NE(it, rw.wr.cols.end());
  EXPECT_TRUE(it->second.IsPointsOnly());
  EXPECT_EQ(it->second.points.size(), 1u);
  EXPECT_EQ(*it->second.points.begin(), sql::Value::String("alice01").Encode());
}

TEST_F(RwSetsTest, RowWiseWildcardWithoutRiPredicate) {
  Analyze("CREATE TABLE users (uid VARCHAR(16) PRIMARY KEY, nick VARCHAR)");
  QueryRW rw = Analyze("UPDATE users SET nick = 'x' WHERE nick = 'Bob'");
  auto it = rw.wr.cols.find("users.uid");
  ASSERT_NE(it, rw.wr.cols.end());
  EXPECT_TRUE(it->second.IsTop());
}

TEST_F(RwSetsTest, OrUnionsAndInListsEnumerate) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  QueryRW rw = Analyze("DELETE FROM t WHERE id = 1 OR id = 2");
  EXPECT_EQ(rw.wr.cols.at("t.id").points.size(), 2u);
  QueryRW rw_in = Analyze("DELETE FROM t WHERE id IN (3, 4, 5)");
  EXPECT_EQ(rw_in.wr.cols.at("t.id").points.size(), 3u);
}

TEST_F(RwSetsTest, OrWithUnresolvedDisjunctIsWildcard) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  QueryRW rw = Analyze("DELETE FROM t WHERE id = 1 OR v = 9");
  EXPECT_TRUE(rw.wr.cols.at("t.id").IsTop()) << "§4.3 OR semantics";
}

TEST_F(RwSetsTest, AndPrefersTheRiConjunct) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  QueryRW rw = Analyze("DELETE FROM t WHERE v > 3 AND id = 7");
  const auto& vals = rw.wr.cols.at("t.id");
  EXPECT_TRUE(vals.IsPointsOnly());
  EXPECT_EQ(vals.points.size(), 1u);
}

TEST_F(RwSetsTest, AliasRiColumnTranslates) {
  // §4.3's Q14 example: DELETE by nickname maps to the uid RI value
  // learned from the original INSERT.
  analyzer_.ConfigureRi("users", "uid", {"nickname"});
  Analyze("CREATE TABLE users (uid VARCHAR(16) PRIMARY KEY,"
          " nickname VARCHAR(16))");
  Analyze("INSERT INTO users VALUES ('bob99', 'Bob')");
  QueryRW rw = Analyze("DELETE FROM users WHERE nickname = 'Bob'");
  const auto& vals = rw.wr.cols.at("users.uid");
  EXPECT_TRUE(vals.IsPointsOnly());
  ASSERT_EQ(vals.points.size(), 1u);
  EXPECT_EQ(*vals.points.begin(), sql::Value::String("bob99").Encode());
}

TEST_F(RwSetsTest, UnseenAliasValueIsWildcard) {
  analyzer_.ConfigureRi("users", "uid", {"nickname"});
  Analyze("CREATE TABLE users (uid VARCHAR(16) PRIMARY KEY,"
          " nickname VARCHAR(16))");
  QueryRW rw = Analyze("DELETE FROM users WHERE nickname = 'Ghost'");
  EXPECT_TRUE(rw.wr.cols.at("users.uid").IsTop());
}

TEST_F(RwSetsTest, MergedRiValuesCanonicalizeEqual) {
  // §4.3 "Merging RI values": after UPDATE SET id = v2 WHERE id = v1,
  // v1 and v2 refer to the same physical row.
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Analyze("INSERT INTO t VALUES (1, 10)");
  QueryRW merge_rw = Analyze("UPDATE t SET id = 2 WHERE id = 1");
  QueryRW before = Analyze("UPDATE t SET v = 7 WHERE id = 1");
  QueryRW after = Analyze("UPDATE t SET v = 8 WHERE id = 2");
  analyzer_.CanonicalizeRowSets(&before);
  analyzer_.CanonicalizeRowSets(&after);
  EXPECT_TRUE(before.wr.RegionIntersects(after.wr))
      << "merged RI values must compare equal after canonicalization";
}

TEST_F(RwSetsTest, CallMergesBothBranchesOfProcedure) {
  Analyze("CREATE TABLE a (id INT PRIMARY KEY, v INT)");
  Analyze("CREATE TABLE b (id INT PRIMARY KEY, v INT)");
  Analyze(
      "CREATE PROCEDURE p (IN x INT) BEGIN"
      " IF x > 0 THEN UPDATE a SET v = 1 WHERE id = x;"
      " ELSE UPDATE b SET v = 1 WHERE id = x; END IF; END");
  QueryRW rw = Analyze("CALL p(5)");
  // Branch overestimation (§4.2): both arms' writes are present.
  EXPECT_TRUE(rw.wc.Contains("a.v"));
  EXPECT_TRUE(rw.wc.Contains("b.v"));
  EXPECT_TRUE(rw.rc.Contains("_S.p")) << "CALL reads the procedure schema";
  // Row-wise: the argument concretizes the RI value on both tables.
  EXPECT_TRUE(rw.wr.cols.at("a.id").IsPointsOnly());
  EXPECT_EQ(*rw.wr.cols.at("a.id").points.begin(),
            sql::Value::Int(5).Encode());
}

TEST_F(RwSetsTest, ProcedureSelectIntoVarMakesLaterUseUnknown) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Analyze(
      "CREATE PROCEDURE p (IN x INT) BEGIN"
      " DECLARE w INT;"
      " SELECT v INTO w FROM t WHERE id = x;"
      " UPDATE t SET v = 0 WHERE id = w;"
      " END");
  QueryRW rw = Analyze("CALL p(3)");
  EXPECT_TRUE(rw.wr.cols.at("t.id").IsTop())
      << "a SELECT-INTO variable is unknown statically -> wildcard rows";
}

TEST_F(RwSetsTest, TriggerBodyMergesIntoTriggeringQuery) {
  Analyze("CREATE TABLE items (id INT PRIMARY KEY, n VARCHAR)");
  Analyze("CREATE TABLE audit (what VARCHAR)");
  Analyze("CREATE TRIGGER tr AFTER INSERT ON items FOR EACH ROW"
          " INSERT INTO audit VALUES (NEW.n)");
  QueryRW rw = Analyze("INSERT INTO items VALUES (1, 'x')");
  EXPECT_TRUE(rw.wc.Contains("audit.what"))
      << "Appendix A TRIGGER-ing queries policy";
  EXPECT_TRUE(rw.rc.Contains("_S.tr"));
}

TEST_F(RwSetsTest, ViewReadExpandsToSourceAndSchema) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Analyze("CREATE VIEW big AS SELECT id, v FROM t WHERE v > 10");
  QueryRW rw = Analyze("SELECT id FROM big");
  EXPECT_TRUE(rw.rc.Contains("_S.big"));
  EXPECT_TRUE(rw.rc.Contains("t.v")) << "the view's WHERE reads t.v";
}

TEST_F(RwSetsTest, UpdatableViewWriteTouchesBaseTable) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Analyze("CREATE VIEW big AS SELECT id, v FROM t WHERE v > 10");
  QueryRW rw = Analyze("UPDATE big SET v = 0 WHERE id = 3");
  EXPECT_TRUE(rw.wc.Contains("t.v"));
  EXPECT_TRUE(rw.wc.Contains("_S.big"));
}

TEST_F(RwSetsTest, DropTableEvolvesRegistry) {
  Analyze("CREATE TABLE gone (id INT PRIMARY KEY)");
  Analyze("DROP TABLE gone");
  EXPECT_EQ(analyzer_.registry()->FindTable("gone"), nullptr);
}

TEST_F(RwSetsTest, UltraverseLogIsCompact) {
  Analyze("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  QueryRW rw = Analyze("UPDATE t SET v = 1 WHERE id = 3");
  std::string text = "UPDATE t SET v = 1 WHERE id = 3";
  EXPECT_LT(rw.ApproxLogBytes(), text.size() + 60)
      << "dependency log must be smaller than a MySQL-style event";
}

TEST(RowSetTest, IntersectionSemantics) {
  RowSet a, b;
  a.AddValue("t.id", "v1");
  b.AddValue("t.id", "v2");
  EXPECT_FALSE(a.RegionIntersects(b));
  b.AddValue("t.id", "v1");
  EXPECT_TRUE(a.RegionIntersects(b));
  RowSet wild;
  wild.AddWildcard("t.id");
  EXPECT_TRUE(wild.RegionIntersects(a));
  EXPECT_TRUE(a.RegionIntersects(wild));
  RowSet other_col;
  other_col.AddWildcard("u.id");
  EXPECT_FALSE(other_col.RegionIntersects(a))
      << "different columns never overlap";
}

TEST(RowSetTest, ContributionsCommute) {
  // A statement's row contributions join into their key, so applying them
  // in any order must give the same RowSet. Equality is observed through
  // RegionIntersects against probe sets covering every value the
  // contributions name, the gaps between them and both unbounded ends.
  auto i = [](int64_t v) { return sql::Value::Int(v).Encode(); };
  auto iv = [](std::optional<int64_t> lo, std::optional<int64_t> hi) {
    ValueInterval out;
    if (lo) out.lo = sql::Value::Int(*lo);
    if (hi) out.hi = sql::Value::Int(*hi);
    return ValueRegion::OfInterval(out);  // open at both ends
  };
  const std::vector<std::string> keys = {"t.id", "u.id"};
  std::vector<RowSet> probes;
  for (const auto& key : keys) {
    for (int64_t v = -1; v <= 12; ++v) {
      probes.emplace_back().AddValue(key, i(v));
      probes.emplace_back().AddConstrained(key, std::nullopt, iv(v, v + 1));
    }
    probes.emplace_back().AddConstrained(key, std::nullopt,
                                         iv(std::nullopt, -1));
    probes.emplace_back().AddConstrained(key, std::nullopt,
                                         iv(12, std::nullopt));
  }
  auto observe = [&](const RowSet& rs) {
    std::string bits;
    for (const auto& key : keys) bits += rs.cols.count(key) ? 'k' : '-';
    for (const auto& probe : probes) {
      bits += probe.RegionIntersects(rs) ? '1' : '0';
    }
    return bits;
  };

  std::mt19937 rng(25);
  auto pick = [&rng](int n) { return int(rng() % unsigned(n)); };
  using Contribution = std::function<void(RowSet*)>;
  auto random_contribution = [&]() -> Contribution {
    const std::string key = keys[pick(4) == 0 ? 1 : 0];
    const int64_t a = pick(10);
    const int64_t b = a + 1 + pick(4);
    switch (pick(4)) {
      case 0:
        return [=](RowSet* rs) { rs->AddValue(key, i(a)); };
      case 1:
        return [=](RowSet* rs) { rs->AddWildcard(key); };
      case 2: {
        // Resolved values met with a region that may exclude some of them.
        std::set<std::string> values = {i(a), i(b)};
        ValueRegion region = pick(2) ? ValueRegion::Top() : iv(a - 1, b - 1);
        return [=](RowSet* rs) { rs->AddConstrained(key, values, region); };
      }
      default: {
        // Unresolved values: the predicate region alone bounds the rows.
        ValueRegion region = iv(a, b);
        if (pick(2)) region.MergeWith(ValueRegion::OfPoints({i(b + 2)}));
        return [=](RowSet* rs) {
          rs->AddConstrained(key, std::nullopt, region);
        };
      }
    }
  };
  for (int round = 0; round < 300; ++round) {
    std::vector<Contribution> seq(2 + pick(3));
    for (auto& c : seq) c = random_contribution();
    std::vector<size_t> order(seq.size());
    std::iota(order.begin(), order.end(), 0);
    std::string first;
    do {
      RowSet rs;
      for (size_t k : order) seq[k](&rs);
      const std::string seen = observe(rs);
      if (first.empty()) first = seen;
      EXPECT_EQ(seen, first) << "round " << round;
    } while (std::next_permutation(order.begin(), order.end()));
  }

  // The shape that depended on the order: a point, then a range whose
  // values are unresolved, must not widen to ⊤.
  RowSet value_first, range_first;
  value_first.AddValue("t.id", i(5));
  value_first.AddConstrained("t.id", std::nullopt, iv(0, 10));
  range_first.AddConstrained("t.id", std::nullopt, iv(0, 10));
  range_first.AddValue("t.id", i(5));
  EXPECT_EQ(observe(value_first), observe(range_first));
  RowSet far;
  far.AddValue("t.id", i(20));
  EXPECT_FALSE(value_first.RegionIntersects(far));
}

}  // namespace
}  // namespace ultraverse::core
