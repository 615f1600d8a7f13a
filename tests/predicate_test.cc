// Symbolic predicate regions (DESIGN.md §15): the abstract domain itself,
// extraction parity between the dynamic and static walks, row-granularity
// soundness (dynamic view ⊆ static view), the planner's predicate
// pre-filter tier, the scheduler's region refutation, the predicate-aware
// conflict matrix, and the shard advisor.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/conflict_matrix.h"
#include "analysis/shard_advisor.h"
#include "analysis/soundness.h"
#include "analysis/static_rw.h"
#include "core/dep_graph.h"
#include "core/predicate.h"
#include "core/rw_sets.h"
#include "core/txn_scheduler.h"
#include "core/ultraverse.h"
#include "obs/explain.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "sqldb/value.h"
#include "util/sha256.h"
#include "workloads/workload.h"

namespace ultraverse::analysis {
namespace {

using core::PlanExclusion;
using core::QueryRW;
using core::RowSet;
using core::ValueInterval;
using core::ValueRegion;
using oracle::GenerateCase;
using oracle::Universe;
using oracle::WhatIfCase;
using sql::Parser;
using sql::StatementPtr;
using sql::Value;

StatementPtr Parse(const std::string& sql) {
  auto r = Parser::ParseStatement(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return *r;
}

ValueInterval Iv(std::optional<Value> lo, bool lo_incl, std::optional<Value> hi,
                 bool hi_incl) {
  ValueInterval iv;
  iv.lo = std::move(lo);
  iv.lo_incl = lo_incl;
  iv.hi = std::move(hi);
  iv.hi_incl = hi_incl;
  return iv;
}

// --- the abstract domain -----------------------------------------------------

TEST(ValueRegionTest, PointMeetAndMembership) {
  ValueRegion a = ValueRegion::OfPoints(
      {Value::Int(1).Encode(), Value::Int(2).Encode()});
  ValueRegion b = ValueRegion::OfPoints(
      {Value::Int(2).Encode(), Value::Int(3).Encode()});
  ValueRegion m = a.MeetWith(b);
  EXPECT_FALSE(m.IsEmptySet());
  EXPECT_TRUE(m.Contains(Value::Int(2)));
  EXPECT_FALSE(m.Contains(Value::Int(1)));
  EXPECT_TRUE(a.Intersects(b));
  ValueRegion c = ValueRegion::OfPoints({Value::Int(9).Encode()});
  EXPECT_FALSE(a.Intersects(c));
}

TEST(ValueRegionTest, IntervalMeetClipsBounds) {
  ValueRegion a = ValueRegion::OfInterval(
      Iv(Value::Int(1), true, Value::Int(10), false));  // [1, 10)
  ValueRegion b = ValueRegion::OfInterval(
      Iv(Value::Int(5), false, Value::Int(20), true));  // (5, 20]
  ValueRegion m = a.MeetWith(b);  // (5, 10)
  EXPECT_TRUE(m.Contains(Value::Int(7)));
  EXPECT_FALSE(m.Contains(Value::Int(5)));
  EXPECT_FALSE(m.Contains(Value::Int(10)));
  ValueRegion far = ValueRegion::OfInterval(
      Iv(Value::Int(50), true, std::nullopt, false));  // [50, +inf)
  EXPECT_FALSE(a.Intersects(far));
}

TEST(ValueRegionTest, TopAndEmptyAlgebra) {
  ValueRegion top = ValueRegion::Top();
  ValueRegion empty = ValueRegion::EmptySet();
  ValueRegion pts = ValueRegion::OfPoints({Value::Int(4).Encode()});
  EXPECT_TRUE(top.Intersects(pts));
  EXPECT_TRUE(top.Contains(Value::String("x")));
  // The empty set beats ⊤: nothing was touched, so nothing intersects.
  EXPECT_FALSE(empty.Intersects(top));
  EXPECT_FALSE(top.Intersects(empty));
  // Meet with ⊤ is identity.
  ValueRegion m = pts.MeetWith(top);
  EXPECT_TRUE(m.Contains(Value::Int(4)));
  EXPECT_FALSE(m.IsTop());
  // AddPoint on ⊤ stays ⊤ (it already contains the point).
  top.AddPoint(Value::Int(1).Encode());
  EXPECT_TRUE(top.IsTop());
}

TEST(ValueRegionTest, ContainedInIsConservativeButSoundOnAlignedShapes) {
  ValueRegion pts = ValueRegion::OfPoints(
      {Value::Int(3).Encode(), Value::Int(4).Encode()});
  ValueRegion cover = ValueRegion::OfInterval(
      Iv(Value::Int(0), true, Value::Int(10), true));
  EXPECT_TRUE(pts.ContainedIn(cover));
  EXPECT_TRUE(pts.ContainedIn(ValueRegion::Top()));
  EXPECT_FALSE(ValueRegion::Top().ContainedIn(pts));
  EXPECT_FALSE(cover.ContainedIn(pts));
  // An interval must fit under a *single* interval of the cover.
  ValueRegion wide = ValueRegion::OfInterval(
      Iv(Value::Int(2), true, Value::Int(8), true));
  EXPECT_TRUE(wide.ContainedIn(cover));
  EXPECT_FALSE(cover.ContainedIn(wide));
  // The empty set is contained in everything.
  EXPECT_TRUE(ValueRegion::EmptySet().ContainedIn(pts));
}

TEST(ValueRegionTest, NullOrdersBelowEveryValue) {
  // Value::Compare total order: NULL < bool < numeric < string. A range
  // like `id < NULL` therefore selects nothing real — the region
  // (-inf, NULL) must not claim integers.
  ValueInterval below_null = Iv(std::nullopt, false, Value::Null(), false);
  EXPECT_FALSE(below_null.Contains(Value::Int(5)));
  EXPECT_FALSE(below_null.Contains(Value::Null()));
  ValueInterval from_null = Iv(Value::Null(), true, std::nullopt, false);
  EXPECT_TRUE(from_null.Contains(Value::Null()));
  EXPECT_TRUE(from_null.Contains(Value::Int(5)));
  EXPECT_TRUE(from_null.Contains(Value::String("z")));
}

TEST(ValueRegionTest, IntersectsEqualsNonEmptyMeet) {
  // Intersects answers without building the meet; it must agree with the
  // meet on random regions, including points whose encoding does not
  // decode (conservatively members of every non-empty interval set).
  std::mt19937 rng(7);
  auto pick = [&rng](int n) { return int(rng() % unsigned(n)); };
  auto value = [&]() -> Value {
    switch (pick(6)) {
      case 0: return Value::Null();
      case 1: return Value::String(std::string(1, char('a' + pick(3))));
      default: return Value::Int(pick(8));
    }
  };
  auto interval = [&]() {
    ValueInterval out;
    if (pick(4)) out.lo = value();
    if (pick(4)) out.hi = value();
    out.lo_incl = pick(2);
    out.hi_incl = pick(2);
    return out;
  };
  auto region = [&]() {
    if (pick(10) == 0) return ValueRegion::Top();
    ValueRegion r = ValueRegion::EmptySet();
    for (int k = pick(4); k > 0; --k) {
      r.points.insert(pick(5) == 0 ? std::string("Zjunk|") : value().Encode());
    }
    for (int k = pick(3); k > 0; --k) r.intervals.push_back(interval());
    return r;
  };
  for (int round = 0; round < 20000; ++round) {
    ValueInterval x = interval();
    ValueInterval y = interval();
    ASSERT_EQ(x.Intersects(y), x.Meet(y).has_value())
        << x.ToString() << " vs " << y.ToString();
    ValueRegion a = region();
    ValueRegion b = region();
    ASSERT_EQ(a.Intersects(b), !a.MeetWith(b).IsEmptySet())
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(ValueDecodeTest, RoundTripsEveryType) {
  for (const Value& v :
       {Value::Null(), Value::Bool(true), Value::Int(-42),
        Value::Int(int64_t(1) << 60), Value::Double(2.5),
        Value::String("hello|world")}) {
    Value out;
    ASSERT_TRUE(Value::Decode(v.Encode(), &out)) << v.ToDisplayString();
    EXPECT_TRUE(out.Equals(v)) << v.ToDisplayString();
  }
  Value out;
  EXPECT_FALSE(Value::Decode("", &out));
  EXPECT_FALSE(Value::Decode("Zjunk|", &out));
}

// --- extraction: static walk -------------------------------------------------

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

const char* kTableT = "CREATE TABLE t (id INT PRIMARY KEY, v INT)";

TEST(RegionExtractionTest, StaticRangePredicateBecomesTypedInterval) {
  StaticSummary sum =
      SummarizeAfter({kTableT, "UPDATE t SET v = 1 WHERE id < 10"});
  // Classic RI extraction cannot express a range; the region can.
  const ValueRegion& view = sum.rw.wr.cols.at("t.id");
  EXPECT_FALSE(view.IsTop());
  EXPECT_FALSE(view.IsPointsOnly());
  EXPECT_TRUE(view.Contains(Value::Int(9)));
  EXPECT_FALSE(view.Contains(Value::Int(10)));
  EXPECT_FALSE(view.Contains(Value::Int(11)));
}

TEST(RegionExtractionTest, StaticBetweenDesugarsToClosedInterval) {
  StaticSummary sum =
      SummarizeAfter({kTableT, "DELETE FROM t WHERE id BETWEEN 3 AND 5"});
  const ValueRegion& view = sum.rw.wr.cols.at("t.id");
  EXPECT_TRUE(view.Contains(Value::Int(3)));
  EXPECT_TRUE(view.Contains(Value::Int(5)));
  EXPECT_FALSE(view.Contains(Value::Int(2)));
  EXPECT_FALSE(view.Contains(Value::Int(6)));
}

TEST(RegionExtractionTest, StaticOrJoinsAndAndMeets) {
  StaticSummary sum = SummarizeAfter(
      {kTableT, "DELETE FROM t WHERE id = 1 OR id > 100"});
  const ValueRegion& view = sum.rw.wr.cols.at("t.id");
  EXPECT_TRUE(view.Contains(Value::Int(1)));
  EXPECT_TRUE(view.Contains(Value::Int(101)));
  EXPECT_FALSE(view.Contains(Value::Int(50)));

  StaticSummary conj = SummarizeAfter(
      {kTableT, "DELETE FROM t WHERE id = 5 AND id < 10"});
  const ValueRegion& cview = conj.rw.wr.cols.at("t.id");
  EXPECT_TRUE(cview.Contains(Value::Int(5)));
  EXPECT_FALSE(cview.Contains(Value::Int(7)));
}

TEST(RegionExtractionTest, WideningSitesDegradeToTop) {
  // Procedure parameters are unknown statically (the wildcarded all-paths
  // summary), and nondeterministic builtins are unknown everywhere.
  StaticAnalyzer analyzer;
  for (const char* sql :
       {kTableT,
        "CREATE PROCEDURE p (IN x INT) BEGIN "
        "UPDATE t SET v = 0 WHERE id = x; END"}) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto proc = analyzer.ProcedureSummary("p");
  ASSERT_TRUE(proc.ok());
  EXPECT_TRUE((*proc)->rw.wr.cols.at("t.id").IsTop());

  StaticSummary nondet =
      SummarizeAfter({kTableT, "DELETE FROM t WHERE id = RAND()"});
  EXPECT_TRUE(nondet.rw.wr.cols.at("t.id").IsTop());
}

// --- extraction: dynamic walk + soundness ------------------------------------

class DynamicRegionTest : public ::testing::Test {
 protected:
  QueryRW Analyze(const std::string& sql_text) {
    sql::LogEntry entry;
    entry.stmt = Parse(sql_text);
    entry.sql = sql_text;
    auto rw = analyzer_.AnalyzeEntry(entry);
    EXPECT_TRUE(rw.ok()) << sql_text << ": " << rw.status().ToString();
    return rw.ok() ? *rw : QueryRW{};
  }

  core::QueryAnalyzer analyzer_;
};

TEST_F(DynamicRegionTest, RangePredicateCarriesTypedRegion) {
  Analyze(kTableT);
  QueryRW rw = Analyze("DELETE FROM t WHERE id > 3 AND id < 7");
  const ValueRegion& view = rw.wr.cols.at("t.id");
  EXPECT_TRUE(view.Contains(Value::Int(5)));
  EXPECT_FALSE(view.Contains(Value::Int(3)));
  EXPECT_FALSE(view.Contains(Value::Int(7)));
}

TEST_F(DynamicRegionTest, ResolvedVariableMeetsRangeToEmpty) {
  // The mixed-case hazard: the dynamic side resolves the variable to 50,
  // the range conjunct says id < 10 — the statement touches no row, and
  // the effective view must say so (not claim {50}).
  Analyze(kTableT);
  Analyze(
      "CREATE PROCEDURE p (IN x INT) BEGIN "
      "UPDATE t SET v = 0 WHERE id = x AND id < 10; END");
  QueryRW rw = Analyze("CALL p(50)");
  const ValueRegion& view = rw.wr.cols.at("t.id");
  EXPECT_TRUE(view.IsEmptySet());
}

TEST(RegionSoundnessTest, DynamicViewContainedInStaticView) {
  // SoundnessChecker now enforces dyn-region ⊆ stat-region per row key;
  // these histories hit every widening site (variables, ranges, aliases,
  // merges) and must stay breach-free.
  core::QueryAnalyzer analyzer;
  SoundnessChecker checker(&analyzer);
  uint64_t index = 1;
  for (const char* sql : {
           kTableT,
           "INSERT INTO t VALUES (1, 10)",
           "INSERT INTO t VALUES (50, 500)",
           "UPDATE t SET v = 1 WHERE id < 10",
           "DELETE FROM t WHERE id BETWEEN 40 AND 60",
           "CREATE PROCEDURE p (IN x INT) BEGIN "
           "UPDATE t SET v = 0 WHERE id = x AND id < 10; END",
           "CALL p(50)",
           "CALL p(1)",
           "UPDATE t SET id = 2 WHERE id = 1",
           "UPDATE t SET v = 7 WHERE id = 2",
       }) {
    sql::LogEntry entry;
    entry.index = index++;
    entry.stmt = Parse(sql);
    entry.sql = sql;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok()) << sql;
  }
  for (const auto& violation : checker.violations()) {
    ADD_FAILURE() << "containment breach: " << violation.detail << " in "
                  << violation.sql;
  }
  EXPECT_GT(checker.statements_checked(), 0u);
}

TEST(RegionSoundnessTest, FuzzedHistoriesStayContained) {
  for (uint64_t n = 0; n < 25; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/99, n);
    auto violations = oracle::CheckStaticContainment(c.history);
    ASSERT_TRUE(violations.ok()) << violations.status().ToString();
    for (const auto& v : *violations) {
      ADD_FAILURE() << "case " << n << ": " << v;
    }
  }
}

// --- RowSet embedding: joins, canonicalization -------------------------------

TEST(RowSetRegionTest, ContributionJoinAndRegionIntersects) {
  RowSet a;
  a.AddConstrained("t.id", std::set<std::string>{Value::Int(1).Encode()},
                   ValueRegion::OfPoints({Value::Int(1).Encode()}));
  RowSet b;
  b.AddConstrained(
      "t.id", std::nullopt,
      ValueRegion::OfInterval(Iv(Value::Int(5), true, std::nullopt, false)));
  EXPECT_FALSE(a.RegionIntersects(b));
  // Joining a second contribution widens the entry's view.
  b.AddConstrained("t.id", std::nullopt,
                   ValueRegion::OfPoints({Value::Int(1).Encode()}));
  EXPECT_TRUE(a.RegionIntersects(b));
  // Disjoint keys never intersect regardless of regions.
  RowSet other;
  other.AddConstrained("u.id", std::nullopt, ValueRegion::Top());
  EXPECT_FALSE(a.RegionIntersects(other));
}

TEST(RowSetRegionTest, LegacyProducersStaySound) {
  RowSet legacy;
  legacy.AddValue("t.id", Value::Int(3).Encode());
  const ValueRegion& view = legacy.cols.at("t.id");
  EXPECT_TRUE(view.Contains(Value::Int(3)));
  EXPECT_FALSE(view.Contains(Value::Int(4)));
  legacy.AddWildcard("t.id");
  EXPECT_TRUE(legacy.cols.at("t.id").IsTop());
}

TEST_F(DynamicRegionTest, CanonicalizationClosesRegionsOverMergedValues) {
  Analyze(kTableT);
  Analyze("INSERT INTO t VALUES (1, 10)");
  Analyze("UPDATE t SET id = 2 WHERE id = 1");  // 1 and 2 now merge
  QueryRW before = Analyze("UPDATE t SET v = 7 WHERE id = 1");
  QueryRW after = Analyze("UPDATE t SET v = 8 WHERE id = 2");
  analyzer_.CanonicalizeRowSets(&before);
  analyzer_.CanonicalizeRowSets(&after);
  // Regression: canonical values must be real encodings, never collapsed
  // to the empty string by mis-splitting the union-find key.
  for (const auto& v : before.wr.cols.at("t.id").points) {
    EXPECT_FALSE(v.empty());
    Value decoded;
    EXPECT_TRUE(Value::Decode(v, &decoded));
  }
  // Region closure: both statements address the same physical row.
  EXPECT_TRUE(before.wr.RegionIntersects(after.wr));
}

// --- planner: the predicate pre-filter tier ----------------------------------

const std::vector<std::string> kRangeHistory = {
    "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
    "INSERT INTO t VALUES (1, 10)",
    "INSERT INTO t VALUES (7, 70)",
    "UPDATE t SET v = 11 WHERE id = 1",    // 4: retro target
    "UPDATE t SET v = 71 WHERE id >= 5",   // 5: range, disjoint from {1}
    "UPDATE t SET v = 12 WHERE id < 5",    // 6: range, overlaps {1}
};

TEST(PredicatePrefilterTest, RangeDisjointSuffixIsPrunedWithEvidence) {
  auto universe = Universe::Build(kRangeHistory);
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());
  const QueryRW& target_rw = (**analysis)[3];

  core::DependencyOptions with;
  with.record_exclusions = true;
  core::ReplayPlan on = core::ComputeReplayPlan(
      **analysis, 4, target_rw, /*target_occupies_slot=*/true, with);
  core::DependencyOptions without = with;
  without.row_wise = false;
  core::ReplayPlan off = core::ComputeReplayPlan(
      **analysis, 4, target_rw, /*target_occupies_slot=*/true, without);

  // Both updates collide with the target on t.v, and a classic RI-value
  // view sees the ranges as wildcards, so only the region veto can prune
  // statement 5; statement 6 overlaps {1} and must replay under both.
  EXPECT_EQ(on.replay_indices, (std::vector<uint64_t>{6}));
  EXPECT_EQ(off.replay_indices, (std::vector<uint64_t>{5, 6}));

  ASSERT_EQ(on.exclusions_base, 4u);
  ASSERT_GE(on.exclusions.size(), 3u);
  EXPECT_EQ(on.exclusions[5 - on.exclusions_base],
            PlanExclusion::kPredicateDisjoint);
  EXPECT_EQ(on.exclusions[6 - on.exclusions_base], PlanExclusion::kMember);

  // A kFull report carries the refuting region pair as evidence.
  oracle::ModeConfig full;
  full.explain = obs::ExplainLevel::kFull;
  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kRemove;
  op.index = 4;
  core::ReplayStats stats;
  ASSERT_TRUE((*universe)->RunSelective(op, full, &stats).ok());
  const obs::TxnExplain* pruned = stats.report.FindTxn(5);
  ASSERT_NE(pruned, nullptr);
  EXPECT_EQ(pruned->verdict, obs::TxnVerdict::kPrunedPredicateDisjoint);
  EXPECT_NE(pruned->evidence.find(": reads t.id [5, +inf) vs members {1"),
            std::string::npos)
      << pruned->evidence;
}

TEST(PredicatePrefilterTest, GivesColumnOnlyPassRowPower) {
  auto universe = Universe::Build({
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
      "INSERT INTO t VALUES (1, 10)",
      "INSERT INTO t VALUES (2, 20)",
      "UPDATE t SET v = 11 WHERE id = 1",  // 4: target
      "UPDATE t SET v = 21 WHERE id = 2",  // 5: equality-disjoint
  });
  ASSERT_TRUE(universe.ok());
  auto analysis = (*universe)->Analysis();
  ASSERT_TRUE(analysis.ok());
  // One column-closure pass; row_wise adds the region veto to it.
  core::DependencyOptions options;
  core::ReplayPlan on = core::ComputeReplayPlan(
      **analysis, 4, (**analysis)[3], /*target_occupies_slot=*/true, options);
  options.row_wise = false;
  core::ReplayPlan off = core::ComputeReplayPlan(
      **analysis, 4, (**analysis)[3], /*target_occupies_slot=*/true, options);
  EXPECT_TRUE(on.replay_indices.empty());
  EXPECT_EQ(off.replay_indices, (std::vector<uint64_t>{5}));
}

TEST(PredicatePrefilterTest, PrunedPlansOnlyShrinkAndOracleAgrees) {
  // The tier may only remove replay work, never add it; and the rewritten
  // state must still match the full-naive reference (the tier is on by
  // default in every engine config).
  for (uint64_t n = 0; n < 10; ++n) {
    WhatIfCase c = GenerateCase(/*seed=*/4242, n);
    auto universe = Universe::Build(c.history);
    ASSERT_TRUE(universe.ok());
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok());
    uint64_t target =
        c.index >= 1 && c.index <= (*analysis)->size() ? c.index : 1;
    core::DependencyOptions options;
    core::ReplayPlan on = core::ComputeReplayPlan(
        **analysis, target, (**analysis)[target - 1], true, options);
    options.row_wise = false;
    core::ReplayPlan off = core::ComputeReplayPlan(
        **analysis, target, (**analysis)[target - 1], true, options);
    std::set<uint64_t> off_set(off.replay_indices.begin(),
                               off.replay_indices.end());
    for (uint64_t idx : on.replay_indices) {
      EXPECT_TRUE(off_set.count(idx))
          << "case " << n << ": predicate tier added index " << idx;
    }
  }
  WhatIfCase hand;
  hand.history = kRangeHistory;
  hand.kind = core::RetroOp::Kind::kRemove;
  hand.index = 4;
  auto result =
      oracle::CheckCaseAllModes(hand, oracle::StandardModeConfigs());
  EXPECT_TRUE(result.ok) << result.mode << ": " << result.error
                         << result.diff.ToString();
}

TEST(PredicatePrefilterTest, OnePassPremiseHolds) {
  // ComputeReplayPlan's one pass yields 𝕀_c ∩ 𝕀_r only if every entry a
  // column rule can admit (wc ≠ ∅) carries row information (wr ≠ ∅), and
  // the region veto may only shrink the column closure.
  auto premise = [](const std::vector<QueryRW>& analysis,
                    const std::string& where) {
    for (size_t i = 0; i < analysis.size(); ++i) {
      EXPECT_TRUE(analysis[i].wc.empty() || !analysis[i].wr.empty())
          << where << " entry " << i + 1;
    }
  };
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    workload::Driver::Config config;
    config.dependency_rate = 0.3;
    workload::Driver driver(workload::MakeWorkload(name, /*scale=*/1), &uv,
                            config);
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(300).ok()) << name;
    auto analysis = uv.EnsureAnalysis();
    ASSERT_TRUE(analysis.ok()) << name;
    premise(**analysis, name);
  }
  for (uint64_t n = 0; n < 200; ++n) {
    auto universe = Universe::Build(GenerateCase(/*seed=*/1, n).history);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok());
    premise(**analysis, "fuzz " + std::to_string(n));
    for (uint64_t target = 1; target <= (*analysis)->size(); ++target) {
      core::DependencyOptions options;
      core::ReplayPlan vetoed = core::ComputeReplayPlan(
          **analysis, target, (**analysis)[target - 1], true, options);
      options.row_wise = false;
      core::ReplayPlan column = core::ComputeReplayPlan(
          **analysis, target, (**analysis)[target - 1], true, options);
      EXPECT_TRUE(std::includes(
          column.replay_indices.begin(), column.replay_indices.end(),
          vetoed.replay_indices.begin(), vetoed.replay_indices.end()))
          << "fuzz " << n << " target " << target;
    }
  }
}

// --- plan digest: the planner's exact output ---------------------------------

/// Canonical dump of what the planner and the conflict DAG derive for
/// removing log entry `target`: the members, every suffix position's
/// verdict and cluster id, the kFull evidence, and the edge count and
/// critical path of the conflict DAG over the target plus its members.
std::string DumpPlan(const std::vector<QueryRW>& analysis, uint64_t target) {
  const QueryRW& target_rw = analysis[target - 1];
  core::DependencyOptions options;
  options.record_exclusions = true;
  core::ReplayPlan plan = core::ComputeReplayPlan(
      analysis, target, target_rw, /*target_occupies_slot=*/true, options);
  std::string s = std::to_string(target) + " members:";
  for (uint64_t idx : plan.replay_indices) s += std::to_string(idx) + ",";
  s += " verdicts:";
  for (PlanExclusion e : plan.exclusions) s += char('0' + int(e));
  s += " clusters:";
  for (int32_t c : plan.cluster_ids) s += std::to_string(c) + ",";
  std::vector<std::string> evidence =
      core::PredicateEvidence(analysis, target_rw, plan);
  for (size_t j = 0; j < evidence.size(); ++j) {
    if (!evidence[j].empty()) s += " ev" + std::to_string(j) + ":" + evidence[j];
  }
  std::vector<const QueryRW*> ordered = {&target_rw};
  for (uint64_t idx : plan.replay_indices) ordered.push_back(&analysis[idx - 1]);
  size_t edges = 0;
  for (const auto& deps : core::BuildConflictDag(ordered)) edges += deps.size();
  s += " edges:" + std::to_string(edges) +
       " path:" + std::to_string(core::ConflictCriticalPath(ordered)) + "\n";
  return s;
}

TEST(PlanDigestTest, WorkloadsAndFuzzHistoriesUnchanged) {
  // Guards the planner's exact output — plans, verdicts, cluster ids,
  // evidence, conflict-DAG edges and critical paths — on every bundled
  // workload (1500 transactions at dependency rate 0.3, every 7th entry as
  // the target) and on every target of the first 200 seed-1 fuzz
  // histories. A change to the row view's representation must keep these
  // digests; a deliberate change to what the planner decides must update
  // them and say why.
  const std::map<std::string, std::string> expected = {
      {"astore",
       "42018f15ac57a1874638e706aae236dbddd30c537ace99eb1dc1b016b3d2cd8d"},
      {"epinions",
       "8bdfb29c8c6eed1f9dd4af087b1ae04cce4710eb2238a1a7c94ddcbf68540177"},
      {"seats",
       "187b2c25389ef33c908093acba107e159607814ff3841a1de7b41c476c00740b"},
      {"tatp",
       "3e76b9a9857ae96e0083decddf6ed2e9f5cd15d0d4cfc7cef1e13be3a7a8ebb2"},
      {"tpcc",
       "2d029055f77b4a458bdad71cbf43b52c3f26e5c46ffc267fcff3d8310b9352ba"},
  };
  for (const auto& name : workload::AllWorkloadNames()) {
    core::Ultraverse uv;
    workload::Driver::Config config;
    config.dependency_rate = 0.3;
    workload::Driver driver(workload::MakeWorkload(name, /*scale=*/1), &uv,
                            config);
    ASSERT_TRUE(driver.Setup().ok()) << name;
    ASSERT_TRUE(driver.RunHistory(1500).ok()) << name;
    auto analysis = uv.EnsureAnalysis();
    ASSERT_TRUE(analysis.ok()) << name;
    Sha256 digest;
    for (uint64_t target = 1; target <= (*analysis)->size(); target += 7) {
      digest.Update(DumpPlan(**analysis, target));
    }
    EXPECT_EQ(digest.Finish().ToHex(), expected.at(name)) << name;
  }
  Sha256 fuzz;
  for (uint64_t n = 0; n < 200; ++n) {
    auto universe = Universe::Build(GenerateCase(/*seed=*/1, n).history);
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    auto analysis = (*universe)->Analysis();
    ASSERT_TRUE(analysis.ok());
    for (uint64_t target = 1; target <= (*analysis)->size(); ++target) {
      fuzz.Update(DumpPlan(**analysis, target));
    }
  }
  EXPECT_EQ(fuzz.Finish().ToHex(),
            "c383ae34815182112bf1882da4fa65d67a98136fba5313a5ed2e252cc207e489");
}

TEST(PredicatePrefilterTest, VerdictNameRoundTrips) {
  EXPECT_STREQ(
      obs::TxnVerdictName(obs::TxnVerdict::kPrunedPredicateDisjoint),
      "pruned-predicate-disjoint");
  auto parsed = obs::TxnVerdictFromName("pruned-predicate-disjoint");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, obs::TxnVerdict::kPrunedPredicateDisjoint);
  EXPECT_TRUE(obs::VerdictIsPrune(obs::TxnVerdict::kPrunedPredicateDisjoint));
}

// --- scheduler: region refutation --------------------------------------------

TEST(SchedulerPredicateTest, EqualityDisjointUpdatesPrefilter) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql :
       {kTableT, "INSERT INTO t VALUES (1, 10)",
        "INSERT INTO t VALUES (2, 20)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry entry;
    entry.index = commit++;
    entry.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok());
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
      *Parser::ParseStatement("UPDATE t SET v = 11 WHERE id = 1"),
      *Parser::ParseStatement("UPDATE t SET v = 21 WHERE id = 2"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Same table, column-conflicting — only the predicate tier can prove the
  // pair row-disjoint and skip both dynamic analyses.
  EXPECT_EQ(stats->prefiltered, 2u);
  EXPECT_GE(stats->predicate_refuted, 1u);
  for (const auto& [id, want] : std::vector<std::pair<int, std::string>>{
           {1, "11"}, {2, "21"}}) {
    sql::ExecContext ctx;
    auto r = db.Execute(**Parser::ParseStatement(
                            "SELECT v FROM t WHERE id = " +
                            std::to_string(id)),
                        commit + 100, &ctx);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r->rows.empty());
    EXPECT_EQ(r->rows[0][0].ToDisplayString(), want);
  }
}

TEST(SchedulerPredicateTest, SameKeyUpdatesDoNotPrefilter) {
  sql::Database db;
  core::QueryAnalyzer analyzer;
  uint64_t commit = 1;
  for (const char* sql : {kTableT, "INSERT INTO t VALUES (1, 10)"}) {
    StatementPtr stmt = *Parser::ParseStatement(sql);
    sql::ExecContext ctx;
    ASSERT_TRUE(db.Execute(*stmt, commit, &ctx).ok());
    sql::LogEntry entry;
    entry.index = commit++;
    entry.stmt = stmt;
    ASSERT_TRUE(analyzer.AnalyzeEntry(entry).ok());
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
      *Parser::ParseStatement("UPDATE t SET v = v + 1 WHERE id = 1"),
      *Parser::ParseStatement("UPDATE t SET v = v * 2 WHERE id = 1"),
  };
  auto stats = scheduler.ExecuteBatch(batch, commit);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->prefiltered, 0u);
  sql::ExecContext ctx;
  auto r = db.Execute(**Parser::ParseStatement("SELECT v FROM t WHERE id = 1"),
                      commit + 100, &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->rows.empty());
  EXPECT_EQ(r->rows[0][0].ToDisplayString(), "22");  // (10+1)*2, serial order
}

// --- conflict matrix: '~' cells ----------------------------------------------

TEST(PredicateMatrixTest, ConstantKeyProceduresAreRefutedNotConflicting) {
  StaticAnalyzer analyzer;
  for (const char* sql :
       {kTableT,
        "CREATE PROCEDURE pa () BEGIN UPDATE t SET v = 1 WHERE id = 1; END",
        "CREATE PROCEDURE pb () BEGIN UPDATE t SET v = 2 WHERE id = 2; END",
        "CREATE PROCEDURE pw (IN x INT) BEGIN "
        "UPDATE t SET v = 3 WHERE id = x; END"}) {
    ASSERT_TRUE(analyzer.AnalyzeNext(*Parse(sql)).ok());
  }
  auto matrix = BuildConflictMatrix(&analyzer);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  // Columns overlap (t.v writes), rows provably disjoint ({1} vs {2}).
  EXPECT_EQ(matrix->CellAt("pa", "pb"), ConflictCell::kPredicateRefuted);
  EXPECT_FALSE(matrix->At("pa", "pb"));
  // The wildcarded-parameter procedure conflicts with both.
  EXPECT_EQ(matrix->CellAt("pa", "pw"), ConflictCell::kMayConflict);
  EXPECT_TRUE(matrix->At("pa", "pw"));
  // Refuted cells render distinctly.
  EXPECT_NE(matrix->ToString().find('~'), std::string::npos);
}

// --- shard advisor -----------------------------------------------------------

TEST(ShardAdvisorTest, EqualityKeyedTableIsPartitionableWithBoundaries) {
  std::vector<StatementPtr> statements;
  for (const char* sql :
       {"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE u (id INT PRIMARY KEY, v INT)",
        "UPDATE t SET v = 1 WHERE id = 1",
        "UPDATE t SET v = 2 WHERE id = 10",
        "UPDATE t SET v = 3 WHERE id = 20",
        "UPDATE t SET v = 4 WHERE id = 30",
        "UPDATE u SET v = v + 1",
        "UPDATE u SET v = v + 2"}) {
    statements.push_back(Parse(sql));
  }
  auto advice = AdviseSharding(statements, /*shards=*/2);
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  // t and u are never co-accessed: two colocation groups.
  ASSERT_EQ(advice->groups.size(), 2u);
  const ShardAdvice::TableSplit* t_split = nullptr;
  const ShardAdvice::TableSplit* u_split = nullptr;
  for (const auto& s : advice->splits) {
    if (s.table == "t") t_split = &s;
    if (s.table == "u") u_split = &s;
  }
  ASSERT_NE(t_split, nullptr);
  ASSERT_NE(u_split, nullptr);
  // Every conflicting pair on t is refuted: single-key partitionable, with
  // a 2-way boundary proposal among the observed keys.
  EXPECT_TRUE(t_split->partitionable);
  EXPECT_GT(t_split->conflicting_pairs, 0u);
  EXPECT_EQ(t_split->refuted_pairs, t_split->conflicting_pairs);
  ASSERT_EQ(t_split->boundaries.size(), 1u);
  // Full-scan writers on u cannot be separated.
  EXPECT_FALSE(u_split->partitionable);
  EXPECT_GT(u_split->conflicting_pairs, 0u);
  EXPECT_NE(advice->ToString().find("NOT partitionable"), std::string::npos);
  EXPECT_NE(advice->ToJson().find("\"partitionable\":true"),
            std::string::npos);
}

TEST(ShardAdvisorTest, CoAccessedTablesColocate) {
  std::vector<StatementPtr> statements;
  for (const char* sql :
       {"CREATE TABLE a (id INT PRIMARY KEY, v INT)",
        "CREATE TABLE b (id INT PRIMARY KEY, aid INT, "
        "FOREIGN KEY (aid) REFERENCES a(id))",
        "INSERT INTO b (id, aid) VALUES (1, 1)"}) {
    statements.push_back(Parse(sql));
  }
  auto advice = AdviseSharding(statements, 4);
  ASSERT_TRUE(advice.ok());
  // The FK-checking INSERT reads a while writing b: one group.
  bool together = false;
  for (const auto& g : advice->groups) {
    std::set<std::string> names(g.tables.begin(), g.tables.end());
    if (names.count("a") && names.count("b")) together = true;
  }
  EXPECT_TRUE(together);
}

}  // namespace
}  // namespace ultraverse::analysis
