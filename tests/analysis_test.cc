// Static RW-summary inference, soundness checking, conflict matrix, lint
// and the planner/scheduler pre-filters (DESIGN.md §10).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/conflict_matrix.h"
#include "analysis/lint.h"
#include "analysis/soundness.h"
#include "analysis/static_rw.h"
#include "core/dep_graph.h"
#include "core/rw_sets.h"
#include "core/txn_scheduler.h"
#include "core/ultraverse.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "workloads/workload.h"

namespace ultraverse::analysis {
namespace {

using core::QueryRW;
using oracle::GenerateCase;
using oracle::Universe;
using oracle::WhatIfCase;
using sql::Parser;
using sql::StatementPtr;

StatementPtr Parse(const std::string& sql) {
  auto r = Parser::ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return *r;
}

/// Feeds `history` through an owned static analyzer, returning the last
/// statement's summary (the registry evolves through the prefix).
StaticSummary SummarizeAfter(const std::vector<std::string>& history) {
  StaticAnalyzer analyzer;
  StaticSummary last;
  for (const auto& sql : history) {
    auto sum = analyzer.AnalyzeNext(*Parse(sql));
    EXPECT_TRUE(sum.ok()) << sql << ": " << sum.status().ToString();
    last = *sum;
  }
  return last;
}

const std::vector<std::string> kSchema = {
    "CREATE TABLE users (uid INT PRIMARY KEY, name VARCHAR, karma INT)",
    "CREATE TABLE posts (pid INT PRIMARY KEY AUTO_INCREMENT, uid INT, "
    "body VARCHAR, FOREIGN KEY (uid) REFERENCES users(uid))",
};

// --- per-statement inference ----------------------------------------------

TEST(StaticRwTest, SelectReadsColumnsAndRiValues) {
  auto history = kSchema;
  history.push_back("SELECT name FROM users WHERE uid = 7");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.rc.Contains("users.name"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.wc.empty());
  const auto& rr = sum.rw.rr.cols.at("users.uid");
  EXPECT_TRUE(rr.IsPointsOnly());
  EXPECT_EQ(rr.points.size(), 1u);
  EXPECT_TRUE(sum.rw.read_tables.count("users"));
  EXPECT_FALSE(sum.rw.is_ddl);
}

TEST(StaticRwTest, InsertWritesAllColumnsWithLiteralRi) {
  auto history = kSchema;
  history.push_back("INSERT INTO users (uid, name, karma) "
                    "VALUES (3, 'ada', 10)");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.wc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.wc.Contains("users.name"));
  EXPECT_TRUE(sum.rw.wc.Contains("users.karma"));
  const auto& wr = sum.rw.wr.cols.at("users.uid");
  EXPECT_TRUE(wr.IsPointsOnly());
  EXPECT_EQ(wr.points.size(), 1u);
  EXPECT_FALSE(sum.rw.overwrites);
}

TEST(StaticRwTest, AutoIncrementInsertIsRowWildcard) {
  auto history = kSchema;
  history.push_back("INSERT INTO posts (uid, body) VALUES (3, 'hi')");
  StaticSummary sum = SummarizeAfter(history);
  // The assigned id is runtime state: statically any row.
  EXPECT_TRUE(sum.rw.wr.cols.at("posts.pid").IsTop());
  // FK read of the referenced column.
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));
  EXPECT_TRUE(sum.rw.read_tables.count("users"));
}

TEST(StaticRwTest, UpdateIsOverwriteWithRiFromWhere) {
  auto history = kSchema;
  history.push_back("UPDATE users SET karma = karma + 1 WHERE uid = 5");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.overwrites);
  EXPECT_TRUE(sum.rw.wc.Contains("users.karma"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.karma"));  // read in the SET expr
  const auto& wr = sum.rw.wr.cols.at("users.uid");
  EXPECT_TRUE(wr.IsPointsOnly());
  EXPECT_EQ(wr.points.size(), 1u);
}

TEST(StaticRwTest, DeleteWithoutWhereIsRowWildcard) {
  auto history = kSchema;
  history.push_back("DELETE FROM users");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.overwrites);
  EXPECT_TRUE(sum.rw.wr.cols.at("users.uid").IsTop());
  // posts references users: its rows may be affected.
  EXPECT_TRUE(sum.rw.write_tables.count("posts"));
}

TEST(StaticRwTest, DdlMarksSchemaCells) {
  auto history = kSchema;
  history.push_back("ALTER TABLE users ADD COLUMN bio VARCHAR");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.is_ddl);
  EXPECT_TRUE(sum.has_ddl);
  EXPECT_TRUE(sum.rw.wc.Contains("_S.users"));
  // The owned registry evolved: the new column resolves afterwards.
  StaticAnalyzer analyzer;
  for (const auto& sql : history) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto after = analyzer.AnalyzeNext(
      *Parse("UPDATE users SET bio = 'x' WHERE uid = 1"));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->rw.wc.Contains("users.bio"));
  EXPECT_TRUE(after->dead_column_writes.empty());
}

TEST(StaticRwTest, WritesToDroppedColumnsAreDead) {
  auto history = kSchema;
  history.push_back("ALTER TABLE users DROP COLUMN karma");
  history.push_back("INSERT INTO users (uid, name, karma) VALUES (1, 'a', 2)");
  EXPECT_EQ(SummarizeAfter(history).dead_column_writes,
            std::vector<std::string>{"users.karma"});
  history.back() = "UPDATE users SET karma = 1, name = 'b' WHERE uid = 1";
  EXPECT_EQ(SummarizeAfter(history).dead_column_writes,
            std::vector<std::string>{"users.karma"});
}

TEST(StaticRwTest, SubqueryAndViewReadsPropagate) {
  auto history = kSchema;
  history.push_back("CREATE VIEW loud AS SELECT uid, karma FROM users");
  history.push_back("SELECT body FROM posts WHERE uid = "
                    "(SELECT uid FROM loud)");
  StaticSummary sum = SummarizeAfter(history);
  EXPECT_TRUE(sum.rw.rc.Contains("posts.body"));
  EXPECT_TRUE(sum.rw.rc.Contains("users.uid"));   // through the view
  EXPECT_TRUE(sum.rw.rc.Contains("_S.loud"));     // view schema read
}

// --- procedures: all-paths merge and parameter wildcards --------------------

TEST(StaticProcedureTest, AllBranchesMerge) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE branchy(p INT) BEGIN "
                      "IF p > 0 THEN UPDATE users SET karma = 1 WHERE "
                      "uid = p; "
                      "ELSE INSERT INTO posts (uid, body) VALUES (p, 'x'); "
                      "END IF; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("branchy");
  ASSERT_TRUE(sum.ok());
  // Both paths contribute, regardless of which branch runs dynamically.
  EXPECT_TRUE((*sum)->rw.wc.Contains("users.karma"));
  EXPECT_TRUE((*sum)->rw.wc.Contains("posts.body"));
  // Parameter-dependent RI degrades to wildcard.
  EXPECT_TRUE((*sum)->rw.wr.cols.at("users.uid").IsTop());
  EXPECT_TRUE((*sum)->rw.overwrites);  // the UPDATE path may run
}

TEST(StaticProcedureTest, WhileBodyAndUnknownProcedure) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE drip(n INT) BEGIN "
                      "DECLARE i INT DEFAULT 0; "
                      "WHILE i < n DO "
                      "INSERT INTO users (uid, name, karma) VALUES "
                      "(i, 'bot', 0); SET i = i + 1; "
                      "END WHILE; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("drip");
  ASSERT_TRUE(sum.ok());
  // Loop-carried variable: statically any row.
  EXPECT_TRUE((*sum)->rw.wr.cols.at("users.uid").IsTop());
  EXPECT_FALSE(analyzer.ProcedureSummary("nope").ok());
}

TEST(StaticProcedureTest, CacheInvalidatedByDdl) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(
      analyzer
          .AnalyzeNext(*Parse("CREATE PROCEDURE bump(p INT) BEGIN "
                              "UPDATE users SET karma = 9 WHERE uid = p; "
                              "END"))
          .ok());
  auto first = analyzer.ProcedureSummary("bump");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE((*first)->rw.wc.Contains("users.bio"));
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse("ALTER TABLE users ADD COLUMN bio "
                                      "VARCHAR"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE bump(p INT) BEGIN "
                      "UPDATE users SET bio = 'hi' WHERE uid = p; END"))
                  .ok());
  auto second = analyzer.ProcedureSummary("bump");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->rw.wc.Contains("users.bio"));
}

TEST(StaticProcedureTest, NestedDdlSetsHasDdl) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse("CREATE PROCEDURE wipe() BEGIN "
                                      "TRUNCATE TABLE posts; END"))
                  .ok());
  auto sum = analyzer.ProcedureSummary("wipe");
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE((*sum)->has_ddl);
  // A CALL of it is statically DDL-tainted too.
  auto call = analyzer.AnalyzeNext(*Parse("CALL wipe()"));
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->has_ddl);
  EXPECT_TRUE(call->rw.is_ddl);
}

// --- containment unit tests -------------------------------------------------

TEST(ContainmentTest, EqualSetsContained) {
  QueryRW a;
  a.rc.Add("t.x");
  a.wc.Add("t.y");
  a.rr.AddValue("t.x", "v1");
  a.wr.AddWildcard("t.y");
  a.read_tables.insert("t");
  a.write_tables.insert("t");
  EXPECT_EQ(ContainmentBreach(a, a), "");
}

TEST(ContainmentTest, StaticWildcardCoversValues) {
  QueryRW dyn, stat;
  dyn.rr.AddValue("t.x", "v1");
  stat.rr.AddWildcard("t.x");
  EXPECT_EQ(ContainmentBreach(dyn, stat), "");
  // ...but static values never cover a dynamic wildcard.
  EXPECT_NE(ContainmentBreach(stat, dyn), "");
}

TEST(ContainmentTest, ReportsFirstBreach) {
  QueryRW dyn, stat;
  dyn.rc.Add("t.hidden");
  std::string breach = ContainmentBreach(dyn, stat);
  EXPECT_NE(breach.find("t.hidden"), std::string::npos) << breach;

  QueryRW dyn2, stat2;
  dyn2.wr.AddValue("t.x", "7");
  stat2.wr.AddValue("t.x", "8");
  EXPECT_NE(ContainmentBreach(dyn2, stat2), "");

  QueryRW dyn3, stat3;
  dyn3.is_ddl = true;
  EXPECT_NE(ContainmentBreach(dyn3, stat3), "");
  stat3.is_ddl = true;
  stat3.overwrites = true;  // static may over-approximate flags freely
  EXPECT_EQ(ContainmentBreach(dyn3, stat3), "");
}

// --- soundness checker over real histories ----------------------------------

/// Replays a raw SQL history through a fresh analyzer wearing the
/// soundness checker; any violation fails the test with its repro detail.
void ExpectContained(const std::vector<std::string>& history) {
  auto universe = Universe::Build(history);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  core::QueryAnalyzer analyzer;
  SoundnessChecker checker(&analyzer);
  auto analysis = analyzer.AnalyzeLog((*universe)->log());
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  std::string details;
  for (const auto& v : checker.violations()) {
    details += "#" + std::to_string(v.statement_ordinal) + " `" + v.sql +
               "`: " + v.detail + "\n";
  }
  EXPECT_TRUE(checker.violations().empty()) << details;
  EXPECT_GT(checker.statements_checked(), 0u);
}

TEST(SoundnessTest, HandwrittenMixedHistoryContained) {
  ExpectContained({
      "CREATE TABLE users (uid INT PRIMARY KEY, name VARCHAR, karma INT)",
      "CREATE TABLE posts (pid INT PRIMARY KEY AUTO_INCREMENT, uid INT, "
      "body VARCHAR, FOREIGN KEY (uid) REFERENCES users(uid))",
      "INSERT INTO users (uid, name, karma) VALUES (1, 'ada', 5)",
      "INSERT INTO posts (uid, body) VALUES (1, 'hello')",
      "CREATE PROCEDURE hot(p INT) BEGIN "
      "UPDATE users SET karma = karma + 1 WHERE uid = p; "
      "IF p > 10 THEN DELETE FROM posts WHERE uid = p; END IF; END",
      "CALL hot(1)",
      "CALL hot(99)",
      "CREATE TRIGGER tag AFTER INSERT ON posts FOR EACH ROW "
      "BEGIN UPDATE users SET karma = 0 WHERE uid = NEW.uid; END",
      "INSERT INTO posts (uid, body) VALUES (1, 'again')",
      "ALTER TABLE users ADD COLUMN bio VARCHAR",
      "UPDATE users SET bio = 'x' WHERE uid = 1",
      "SELECT name FROM users WHERE uid = (SELECT uid FROM posts)",
      "DELETE FROM users WHERE uid = 1",
  });
}

// --- canonical dumps (shared by the parity and digest tests) ----------------

std::string DumpRegion(const core::ValueRegion& r) {
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

std::string DumpRows(const core::RowSet& rows) {
  std::string s;
  for (const auto& [col, region] : rows.cols) {
    s += col + DumpRegion(region) + " ";
  }
  return s;
}

std::string DumpRW(const QueryRW& rw) {
  return "rc:" + DumpStrings(rw.rc.items) + " wc:" + DumpStrings(rw.wc.items) +
         " rr:" + DumpRows(rw.rr) + " wr:" + DumpRows(rw.wr) +
         " rt:" + DumpStrings(rw.read_tables) +
         " wt:" + DumpStrings(rw.write_tables) +
         " ddl:" + std::to_string(rw.is_ddl) +
         " ow:" + std::to_string(rw.overwrites);
}

std::string DumpSummary(const StaticSummary& sum) {
  std::string s = DumpRW(sum.rw) + " fp:" +
                  (sum.footprint.universal ? "*" : "") +
                  DumpStrings(sum.footprint.tables) +
                  " has_ddl:" + std::to_string(sum.has_ddl) +
                  " nondet:" + DumpStrings(sum.nondet_builtins) + " dead:";
  for (const auto& d : sum.dead_column_writes) s += d + ",";
  return s;
}

/// Observer pairing each statement's raw dynamic sets with the static
/// summary computed against the same pre-statement registry.
class PairObserver : public core::AnalysisObserver {
 public:
  explicit PairObserver(core::QueryAnalyzer* analyzer)
      : analyzer_(analyzer), static_(analyzer->registry()) {
    analyzer_->set_observer(this);
  }
  ~PairObserver() override { analyzer_->set_observer(nullptr); }
  PairObserver(const PairObserver&) = delete;
  PairObserver& operator=(const PairObserver&) = delete;

  void BeforeStatement(const sql::Statement& stmt) override {
    static_.SyncRiOverrides(analyzer_->ri_configs());
    pending_ = static_.Summarize(stmt);
  }
  void AfterStatement(const sql::Statement& stmt,
                      const QueryRW& raw) override {
    Pair p;
    p.sql = sql::ToSql(stmt);
    p.raw = raw;
    if (pending_.ok()) p.summary = *pending_;
    p.static_error = pending_.ok() ? "" : pending_.status().ToString();
    pairs.push_back(std::move(p));
  }

  struct Pair {
    std::string sql;
    QueryRW raw;
    StaticSummary summary;
    std::string static_error;
  };
  std::vector<Pair> pairs;

 private:
  core::QueryAnalyzer* analyzer_;
  StaticAnalyzer static_;
  Result<StaticSummary> pending_ = Status::Internal("no statement observed");
};

TEST(SoundnessTest, LiteralOnlyHistoryStaticEqualsDynamic) {
  // Without procedure variables, auto-increment-assigned RI values or
  // alias-RI predicates, no runtime fact can sharpen the dynamic walk, so
  // the static summary must equal the raw dynamic sets exactly.
  auto universe = Universe::Build({
      "CREATE TABLE users (uid INT PRIMARY KEY, name VARCHAR, karma INT)",
      "CREATE TABLE posts (pid INT PRIMARY KEY, uid INT, body VARCHAR, "
      "FOREIGN KEY (uid) REFERENCES users(uid))",
      "CREATE TABLE notes (txt VARCHAR)",
      "CREATE VIEW hot AS SELECT uid, karma FROM users WHERE karma > 3",
      "INSERT INTO users (uid, name, karma) VALUES (1, 'ada', 5), "
      "(2, 'bob', 1 + 2)",
      "INSERT INTO posts (pid, uid, body) VALUES (10, 1, CONCAT('a', 'b'))",
      "INSERT INTO notes (txt) VALUES ('x')",
      "UPDATE users SET karma = karma + 1 WHERE uid = 1",
      "UPDATE users SET karma = 0 WHERE uid IN (1, 2) OR uid = 3",
      "UPDATE users SET name = 'z' WHERE uid >= 2 AND uid < 9",
      "UPDATE users SET uid = 7 WHERE uid = 2",
      "UPDATE posts SET body = 'q' WHERE body = 'a'",
      "SELECT u.name, p.body FROM users u JOIN posts p ON u.uid = p.uid "
      "WHERE u.uid = 1",
      "SELECT * FROM hot",
      "SELECT name FROM users WHERE uid = (SELECT uid FROM posts "
      "WHERE pid = 10)",
      "BEGIN; INSERT INTO notes (txt) VALUES ('y'); "
      "DELETE FROM posts WHERE pid = 10; COMMIT",
      "CREATE INDEX idx_karma ON users (karma)",
      "ALTER TABLE users ADD COLUMN bio VARCHAR",
      "UPDATE users SET bio = 'x' WHERE uid = 1",
      "DELETE FROM users WHERE uid = 1",
      "DROP VIEW hot",
      "TRUNCATE TABLE notes",
  });
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  core::QueryAnalyzer analyzer;
  PairObserver observer(&analyzer);
  ASSERT_TRUE(analyzer.AnalyzeLog((*universe)->log()).ok());
  ASSERT_EQ(observer.pairs.size(), (*universe)->log().size());
  for (const auto& p : observer.pairs) {
    ASSERT_EQ(p.static_error, "") << p.sql;
    EXPECT_EQ(DumpRW(p.summary.rw), DumpRW(p.raw)) << p.sql;
  }
}

TEST(SoundnessTest, FuzzHistoriesContained) {
  // A slice of generated fuzz histories beyond the oracle smoke (which
  // covers seed 0xC0FFEE): different seed, direct checker attachment.
  for (uint64_t n = 0; n < 25; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/424242, n);
    auto violations = oracle::CheckStaticContainment(c.history);
    ASSERT_TRUE(violations.ok()) << violations.status().ToString();
    std::string details;
    for (const auto& v : *violations) details += v + "\n";
    EXPECT_TRUE(violations->empty()) << "case " << n << ":\n" << details;
  }
}

TEST(SoundnessTest, WorkloadHistoriesContained) {
  // Every bundled workload: schema + population + transactions replayed
  // through a fresh analyzer wearing the checker, with the workload's RI
  // configuration mirrored (alias RI columns are the hard case: the
  // static side must wildcard where the dynamic side uses alias maps).
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    auto workload = workload::MakeWorkload(name, /*scale=*/1);
    ASSERT_NE(workload, nullptr) << name;
    workload::Driver driver(std::move(workload), &uv, {});
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(12).ok()) << name;

    core::QueryAnalyzer analyzer;
    for (const auto& [table, cfg] : uv.analyzer()->ri_configs()) {
      analyzer.ConfigureRi(table, cfg.ri_column, cfg.aliases);
    }
    SoundnessChecker checker(&analyzer);
    auto analysis = analyzer.AnalyzeLog(*uv.log());
    ASSERT_TRUE(analysis.ok()) << name << ": "
                               << analysis.status().ToString();
    std::string details;
    for (const auto& v : checker.violations()) {
      details += "#" + std::to_string(v.statement_ordinal) + " `" + v.sql +
                 "`: " + v.detail + "\n";
    }
    EXPECT_TRUE(checker.violations().empty()) << name << ":\n" << details;
    EXPECT_GT(checker.statements_checked(), 0u) << name;
  }
}

// --- analysis digest ----------------------------------------------------------

/// SHA-256 over a canonical dump of everything the R/W walker produces for
/// `log`: per entry the raw dynamic sets, the canonicalized sets, the
/// follower static summary taken before the entry and the owned-mode
/// AnalyzeNext summary, then every stored procedure's body summary. The
/// analyzer starts with `ri` configured, as the facade's would.
std::string AnalysisDigest(
    const sql::QueryLog& log,
    const std::map<std::string, core::QueryAnalyzer::RiConfig>& ri) {
  core::QueryAnalyzer analyzer;
  StaticAnalyzer owned;
  for (const auto& [table, cfg] : ri) {
    analyzer.ConfigureRi(table, cfg.ri_column, cfg.aliases);
    owned.SetRiOverride(table, cfg.ri_column, cfg.aliases);
  }
  std::string dump;
  {
    PairObserver observer(&analyzer);
    auto analysis = analyzer.AnalyzeLog(log);
    EXPECT_TRUE(analysis.ok()) << analysis.status().ToString();
    if (!analysis.ok()) return "";
    for (size_t i = 0; i < analysis->size(); ++i) {
      const auto& p = observer.pairs[i];
      dump += p.sql + "\nraw " + DumpRW(p.raw) + "\ncanon " +
              DumpRW((*analysis)[i]) + "\nfollow " +
              (p.static_error.empty() ? DumpSummary(p.summary)
                                      : p.static_error) +
              "\n";
      auto next = owned.AnalyzeNext(*log.at(i + 1).stmt);
      dump += "owned " + (next.ok() ? DumpSummary(*next)
                                    : next.status().ToString()) +
              "\n";
    }
  }
  for (const auto& name : owned.registry().ProcedureNames()) {
    auto proc = owned.ProcedureSummary(name);
    dump += "proc " + name + " " +
            (proc.ok() ? DumpSummary(**proc) : proc.status().ToString()) +
            "\n";
  }
  return Sha256::Hash(dump).ToHex();
}

TEST(AnalysisDigestTest, WorkloadsAndFuzzHistoriesUnchanged) {
  // Guards the R/W walker's exact output, dynamic and static, on every
  // bundled workload (seed 1, with its RI configuration) and on the first
  // 200 seed-1 fuzz histories. A deliberate change to what the analysis
  // emits must update these digests and say why.
  const std::map<std::string, std::string> expected = {
      {"astore",
       "5ccadfa77118f149ebfa4707c9f81747d4dbe4d2e653b0d3d04b463a961c1e4e"},
      {"epinions",
       "43bba3e551487b02285bded1e2b6e01bd2063cc7677d3026bf6ee39f7614d78d"},
      {"seats",
       "7ae5ee09bfc42d4b11d132872dbfa106e39766b4653a1179109eeb725e1db739"},
      {"tatp",
       "53b1df139a928c6a589d3c9793151d9aa71d361eea1ec36c2a8638b3e3dbbba1"},
      {"tpcc",
       "92651aec3d9ade6e559f39903fc5dbc93e64fabeb320066cf2bdc6f5d2e95aaa"},
  };
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    workload::Driver driver(workload::MakeWorkload(name, /*scale=*/1), &uv,
                            {});
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(12).ok()) << name;
    EXPECT_EQ(AnalysisDigest(*uv.log(), uv.analyzer()->ri_configs()),
              expected.at(name))
        << name;
  }
  Sha256 fuzz;
  for (uint64_t n = 0; n < 200; ++n) {
    auto universe = Universe::Build(GenerateCase(/*seed=*/1, n).history);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    fuzz.Update(AnalysisDigest((*universe)->log(), {}));
  }
  EXPECT_EQ(fuzz.Finish().ToHex(),
            "2d281e3ae33a38813b761c3681b80cde2ca33017906955831350ead20f578b98");
}

/// A random history that keeps teaching the analyzer RI merges: two keyed
/// tables whose rows are renamed (UPDATE SET id = new WHERE id = old),
/// with freed keys re-inserted, point updates and closed or half-open
/// range updates — the interval regions canonicalization closes under the
/// merge classes.
std::vector<std::string> RenamingHistory(uint64_t seed, int commits) {
  Rng rng(seed);
  const std::vector<std::string> tables = {"acct", "item"};
  std::vector<std::string> out;
  std::map<std::string, std::vector<int64_t>> live, freed;
  for (const auto& t : tables) {
    out.push_back("CREATE TABLE " + t + " (id INT PRIMARY KEY, v INT)");
    for (int64_t id = 1; id <= 12; ++id) {
      out.push_back("INSERT INTO " + t + " (id, v) VALUES (" +
                    std::to_string(id) + ", 0)");
      live[t].push_back(id);
    }
  }
  int64_t next_id = 100;
  for (int i = 0; i < commits; ++i) {
    const std::string& t = tables[size_t(rng.UniformInt(0, 1))];
    std::vector<int64_t>& ids = live[t];
    const size_t pick = size_t(rng.UniformInt(0, int64_t(ids.size()) - 1));
    const std::string id = std::to_string(ids[pick]);
    const int64_t dice = rng.UniformInt(0, 99);
    if (dice < 15) {
      out.push_back("UPDATE " + t + " SET id = " + std::to_string(next_id) +
                    " WHERE id = " + id);
      freed[t].push_back(ids[pick]);
      ids[pick] = next_id++;
    } else if (dice < 20 && !freed[t].empty()) {
      const int64_t back = freed[t].back();
      freed[t].pop_back();
      out.push_back("INSERT INTO " + t + " (id, v) VALUES (" +
                    std::to_string(back) + ", 1)");
      ids.push_back(back);
    } else if (dice < 35) {
      const int64_t lo = rng.UniformInt(1, next_id);
      out.push_back("UPDATE " + t + " SET v = v + 1 WHERE id >= " +
                    std::to_string(lo) + " AND id < " +
                    std::to_string(lo + rng.UniformInt(1, 8)));
    } else if (dice < 40) {
      out.push_back("SELECT v FROM " + t + " WHERE id > " +
                    std::to_string(rng.UniformInt(1, next_id)));
    } else {
      out.push_back("UPDATE " + t + " SET v = v + 1 WHERE id = " + id);
    }
  }
  return out;
}

TEST(AnalysisDigestTest, RenamingHistoriesUnchanged) {
  // Interval regions closed under learned merge classes: a digest of the
  // canonicalized analysis of RenamingHistory seeds 1..24. The constant is
  // what the earlier scan-the-whole-union-find closure produced; the
  // per-column class index must reproduce it exactly.
  Sha256 digest;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    auto universe = Universe::Build(RenamingHistory(seed, /*commits=*/150));
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    core::QueryAnalyzer analyzer;
    auto analysis = analyzer.AnalyzeLog((*universe)->log());
    ASSERT_TRUE(analysis.ok());
    for (const QueryRW& rw : *analysis) digest.Update(DumpRW(rw) + "\n");
  }
  EXPECT_EQ(digest.Finish().ToHex(),
            "4a2d7c5737797c47cc62b822cda89bd04126595a5a83ab38201dc3841b51a0ab");
}

TEST(AnalysisDigestTest, InPlaceRecanonicalizationMatchesFinalUnionFind) {
  // The facade keeps one analysis vector and, when a merged-RI union
  // lands, re-canonicalizes it in place (core/ultraverse.cc). That must
  // equal canonicalizing the raw sets once under the final union-find, as
  // AnalyzeLog does. Catching up after every commit maximizes the number
  // of in-place passes; odd histories also take the eager-analysis commit
  // path.
  std::vector<std::vector<std::string>> histories;
  for (uint64_t n = 0; n < 200; ++n) {
    histories.push_back(GenerateCase(/*seed=*/1, n).history);
  }
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    histories.push_back(RenamingHistory(seed, /*commits=*/150));
  }
  size_t recanonicalized = 0;
  for (size_t h = 0; h < histories.size(); ++h) {
    SCOPED_TRACE(h);
    core::Ultraverse::Options options;
    options.eager_analysis = h % 2 == 1;
    core::Ultraverse uv(options);
    bool moved = false;
    for (const std::string& sql : histories[h]) {
      const uint64_t gen = uv.analyzer()->merge_generation();
      ASSERT_TRUE(uv.ExecuteSql(sql).ok()) << sql;
      ASSERT_TRUE(uv.EnsureAnalysis().ok());
      moved = moved || uv.analyzer()->merge_generation() != gen;
    }
    if (moved) ++recanonicalized;
    auto in_place = uv.EnsureAnalysis();
    ASSERT_TRUE(in_place.ok());
    core::QueryAnalyzer fresh;
    auto once = fresh.AnalyzeLog(*uv.log());
    ASSERT_TRUE(once.ok());
    ASSERT_EQ((*in_place)->size(), once->size());
    for (size_t i = 0; i < once->size(); ++i) {
      EXPECT_EQ(DumpRW((**in_place)[i]), DumpRW((*once)[i])) << "entry " << i;
    }
  }
  EXPECT_GE(recanonicalized, 24u) << "too few histories learned a merge";
}

TEST(SoundnessTest, DetachesOnDestruction) {
  core::QueryAnalyzer analyzer;
  {
    SoundnessChecker checker(&analyzer);
    EXPECT_EQ(analyzer.observer(), &checker);
  }
  EXPECT_EQ(analyzer.observer(), nullptr);
}

// --- conflict matrix ---------------------------------------------------------

TEST(ConflictMatrixTest, SymmetricReflexiveAndDisjoint) {
  StaticAnalyzer analyzer;
  for (const auto& sql : kSchema) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE w_users(p INT) BEGIN UPDATE users "
                      "SET karma = 1 WHERE uid = p; END"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE w_posts(p INT) BEGIN UPDATE posts "
                      "SET body = 'x' WHERE pid = p; END"))
                  .ok());
  ASSERT_TRUE(analyzer
                  .AnalyzeNext(*Parse(
                      "CREATE PROCEDURE r_users(p INT) BEGIN SELECT karma "
                      "FROM users WHERE uid = p; END"))
                  .ok());
  auto matrix = BuildConflictMatrix(&analyzer);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  ASSERT_EQ(matrix->procedures.size(), 3u);
  // Symmetry, always.
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(matrix->conflicts[i][j], matrix->conflicts[j][i]);
    }
  }
  // Writers self-conflict (reflexive for writers).
  EXPECT_TRUE(matrix->At("w_users", "w_users"));
  EXPECT_TRUE(matrix->At("w_posts", "w_posts"));
  // Cross-table writers are provably disjoint... almost: w_posts reads
  // users.uid through the posts FK, but w_users only writes users.karma,
  // so the pair stays disjoint.
  EXPECT_FALSE(matrix->At("w_users", "w_posts"));
  // Read-write overlap on users.karma conflicts.
  EXPECT_TRUE(matrix->At("w_users", "r_users"));
  // Pure reader vs unrelated writer: disjoint.
  EXPECT_FALSE(matrix->At("r_users", "w_posts"));
  // Unknown procedures assume conflict (sound).
  EXPECT_TRUE(matrix->At("w_users", "mystery"));
  EXPECT_FALSE(matrix->ToString().empty());
}

// --- planner pre-filter ------------------------------------------------------

TEST(PrefilterTest, PlanIdenticalWithAndWithoutFootprints) {
  // The static-footprint pre-filter must be invisible in the result: for
  // a spread of generated histories and retro targets, the replay plan
  // with footprints equals the plan without.
  for (uint64_t n = 0; n < 12; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/777, n);
    auto universe = Universe::Build(c.history);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    std::vector<core::TableFootprint> footprints =
        StaticLogFootprints((*universe)->log());
    ASSERT_EQ(footprints.size(), (*analysis)->size());

    uint64_t target =
        c.index >= 1 && c.index <= (*analysis)->size() ? c.index : 1;
    const QueryRW& target_rw = (**analysis)[target - 1];

    core::DependencyOptions with, without;
    with.static_footprints = &footprints;
    core::ReplayPlan a = core::ComputeReplayPlan(
        **analysis, target, target_rw, /*target_occupies_slot=*/true, with);
    core::ReplayPlan b =
        core::ComputeReplayPlan(**analysis, target, target_rw,
                                /*target_occupies_slot=*/true, without);
    EXPECT_EQ(a.replay_indices, b.replay_indices) << "case " << n;
    EXPECT_EQ(a.mutated_tables, b.mutated_tables) << "case " << n;
    EXPECT_EQ(a.needs_schema_rebuild, b.needs_schema_rebuild) << "case " << n;
  }
}

TEST(PrefilterTest, FootprintsAlignWithLogAndFailuresAreUniversal) {
  auto universe = Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 10)",
      "UPDATE t SET v = 11 WHERE id = 1",
  });
  ASSERT_TRUE(universe.ok());
  std::vector<core::TableFootprint> footprints =
      StaticLogFootprints((*universe)->log());
  ASSERT_EQ(footprints.size(), 3u);
  for (const auto& fp : footprints) {
    EXPECT_TRUE(fp.universal || fp.tables.count("t"));
  }
  core::TableFootprint unrelated;
  unrelated.tables.insert("other");
  EXPECT_FALSE(footprints[1].Intersects(unrelated));
  core::TableFootprint universal;
  universal.universal = true;
  EXPECT_TRUE(footprints[1].Intersects(universal));
}

// --- scheduler pre-filter ----------------------------------------------------

TEST(SchedulerPrefilterTest, DisjointBatchPrefiltersAndStatesMatch) {
  auto run = [](bool with_static, core::TxnScheduler::Stats* stats_out)
      -> std::string {
    sql::Database db;
    core::QueryAnalyzer analyzer;
    std::vector<std::string> schema = {
        "CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, v INT)",
    };
    uint64_t commit = 1;
    for (const auto& sql : schema) {
      StatementPtr stmt = *Parser::ParseStatement(sql);
      sql::ExecContext ctx;
      EXPECT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
      sql::LogEntry ddl;
      ddl.index = commit++;
      ddl.stmt = stmt;
      EXPECT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
    }
    StaticAnalyzer statics(analyzer.registry());
    core::TxnScheduler::Options options;
    options.num_threads = 2;
    if (with_static) {
      options.static_summary =
          [&statics](const sql::Statement& stmt) -> std::optional<QueryRW> {
        auto sum = statics.Summarize(stmt);
        if (!sum.ok()) return std::nullopt;
        return sum->rw;
      };
    }
    core::TxnScheduler scheduler(&db, &analyzer, options);
    std::vector<StatementPtr> batch = {
        *Parser::ParseStatement("INSERT INTO a (id, v) VALUES (1, 10)"),
        *Parser::ParseStatement("INSERT INTO b (id, v) VALUES (1, 20)"),
        *Parser::ParseStatement("UPDATE a SET v = 11 WHERE id = 1"),
        *Parser::ParseStatement("UPDATE b SET v = 21 WHERE id = 1"),
    };
    auto stats = scheduler.ExecuteBatch(batch, commit);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok() && stats_out) *stats_out = *stats;
    std::string state;
    for (const char* q :
         {"SELECT v FROM a WHERE id = 1", "SELECT v FROM b WHERE id = 1"}) {
      sql::ExecContext ctx;
      auto r = db.Execute(**Parser::ParseStatement(q), commit + 100, &ctx);
      EXPECT_TRUE(r.ok());
      if (r.ok() && !r->rows.empty() && !r->rows[0].empty()) {
        state += r->rows[0][0].ToDisplayString() + ";";
      }
    }
    return state;
  };
  core::TxnScheduler::Stats with_stats, without_stats;
  std::string with_state = run(true, &with_stats);
  std::string without_state = run(false, &without_stats);
  EXPECT_EQ(with_state, without_state);
  EXPECT_EQ(with_state, "11;21;");
  // a-statements conflict with each other (INSERT then UPDATE on table a),
  // so nothing prefilters in this batch... unless truly disjoint. Check
  // the counter is consistent: without static summaries it must be zero.
  EXPECT_EQ(without_stats.prefiltered, 0u);
}

TEST(SchedulerPrefilterTest, FullyDisjointBatchSkipsAnalysis) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql :
       {"CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, v INT)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry ddl;
    ddl.index = commit++;
    ddl.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(ddl).ok());
  }
  StaticAnalyzer statics(analyzer.registry());
  core::TxnScheduler::Options options;
  options.num_threads = 2;
  options.static_summary =
      [&statics](const sql::Statement& stmt) -> std::optional<QueryRW> {
    auto sum = statics.Summarize(stmt);
    if (!sum.ok()) return std::nullopt;
    return sum->rw;
  };
  core::TxnScheduler scheduler(&db, &analyzer, options);
  std::vector<StatementPtr> batch = {
      *Parser::ParseStatement("INSERT INTO a (id, v) VALUES (1, 10)"),
      *Parser::ParseStatement("INSERT INTO b (id, v) VALUES (1, 20)"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Two INSERTs into different tables: column-wise disjoint, both skip
  // dynamic analysis.
  EXPECT_EQ(stats->prefiltered, 2u);
  EXPECT_EQ(stats->executed, 2u);
}

// --- lint --------------------------------------------------------------------

std::vector<StatementPtr> ParseAll(const std::vector<std::string>& sqls) {
  std::vector<StatementPtr> out;
  for (const auto& s : sqls) out.push_back(Parse(s));
  return out;
}

bool HasFinding(const LintReport& report, const std::string& category,
                const std::string& subject) {
  for (const auto& f : report.findings) {
    if (f.category == category && f.subject == subject) return true;
  }
  return false;
}

TEST(LintTest, FindsAllCategories) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT, legacy INT)",
      "CREATE TABLE audit (id INT PRIMARY KEY, note VARCHAR)",
      "INSERT INTO t (id, v, legacy) VALUES (1, 2, 3)",
      "CREATE PROCEDURE churn(p INT) BEGIN "
      "UPDATE t SET v = RAND() WHERE id = p; END",
      "CREATE PROCEDURE reset_all() BEGIN TRUNCATE TABLE t; END",
      "ALTER TABLE t DROP COLUMN legacy",
      "UPDATE t SET legacy = 9 WHERE id = 1",
      "INSERT INTO audit (id, note) VALUES (1, 'by hand')",
  }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(HasFinding(*report, "nondet-builtin", "RAND"));
  EXPECT_TRUE(HasFinding(*report, "ddl-in-procedure", "reset_all"));
  EXPECT_TRUE(HasFinding(*report, "dead-column-write", "t.legacy"));
  EXPECT_TRUE(HasFinding(*report, "unowned-write", "audit"));
  EXPECT_EQ(report->matrix.procedures.size(), 2u);
  EXPECT_FALSE(report->ToString().empty());
}

TEST(LintTest, CleanScriptHasNoFindings) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "CREATE PROCEDURE set_v(p INT, x INT) BEGIN "
      "UPDATE t SET v = x WHERE id = p; END",
      "CALL set_v(1, 2)",
  }));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->findings.empty()) << report->ToString();
}

TEST(LintTest, NoProceduresMeansNoUnownedWrites) {
  auto report = LintStatements(ParseAll({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t (id, v) VALUES (1, 2)",
  }));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->findings.empty()) << report->ToString();
}

}  // namespace
}  // namespace ultraverse::analysis
