// Decision-provenance report suite (DESIGN.md §13): report totals reconcile
// with ReplayStats, per-transaction verdicts on hand-built histories carry
// the documented reasons, the flight recorder leaves a parseable dump when
// a crash failpoint fires mid-analysis, reports round-trip through JSON,
// the Prometheus exporter escapes label values and emits cumulative +Inf
// buckets, and a fixed-seed `--check-explain` fuzz smoke finds zero unsound
// prune reasons.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/failpoint.h"
#include "obs/explain.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "oracle/fuzzer.h"
#include "oracle/oracle.h"

namespace ultraverse {
namespace {

using obs::ExplainLevel;
using obs::TxnVerdict;
using obs::WhatIfReport;
using oracle::ModeConfig;
using oracle::Universe;
using oracle::WhatIfCase;

// History with one representative per verdict: removing #5 (the id=1
// UPDATE) leaves #6 column-colliding but refuted by the predicate-region
// veto ({2} vs {1}, DESIGN.md §15), #7 touching only table u
// (column-disjoint), #8 a pure read (read-only), and #9 a same-cell
// writer (replayed).
const std::vector<std::string> kVerdictHistory = {
    "CREATE TABLE t (id INT PRIMARY KEY, v INT);",
    "CREATE TABLE u (id INT PRIMARY KEY, v INT);",
    "INSERT INTO t VALUES (1, 10);",
    "INSERT INTO t VALUES (2, 20);",
    "UPDATE t SET v = 11 WHERE id = 1;",
    "UPDATE t SET v = 21 WHERE id = 2;",
    "INSERT INTO u VALUES (1, 5);",
    "SELECT v FROM t;",
    "UPDATE t SET v = 12 WHERE id = 1;",
};

core::RetroOp RemoveOp(uint64_t index) {
  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kRemove;
  op.index = index;
  return op;
}

core::ReplayStats RunFullExplain(Universe* u, const core::RetroOp& op,
                                 bool hash_jumper = false) {
  ModeConfig config;
  config.name = "explain-test";
  config.hash_jumper = hash_jumper;
  config.explain = ExplainLevel::kFull;
  core::ReplayStats stats;
  Status st = u->RunSelective(op, config, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return stats;
}

TEST(ExplainReport, TotalsReconcileWithReplayStats) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  core::ReplayStats stats = RunFullExplain(u->get(), RemoveOp(5));
  const WhatIfReport& report = stats.report;

  EXPECT_EQ(report.op, "remove");
  EXPECT_EQ(report.target_index, 5u);
  EXPECT_EQ(report.suffix_size, stats.suffix_size);
  EXPECT_EQ(report.replayed, stats.replayed);
  EXPECT_EQ(report.skipped, stats.skipped);

  uint64_t total = 0;
  for (uint64_t n : report.verdict_counts) total += n;
  EXPECT_EQ(total, report.suffix_size);

  // Every suffix transaction explained exactly once at kFull.
  std::set<uint64_t> seen;
  for (const auto& te : report.txns) {
    if (te.is_new) continue;
    EXPECT_TRUE(seen.insert(te.index).second) << "duplicate txn " << te.index;
    EXPECT_GE(te.index, 5u);
    EXPECT_LE(te.index, kVerdictHistory.size());
  }
  EXPECT_EQ(seen.size(), kVerdictHistory.size() - 5 + 1);

  // Phases cover the documented pipeline in order.
  std::vector<std::string> names;
  for (const auto& p : report.phases) names.push_back(p.name);
  EXPECT_EQ(names, (std::vector<std::string>{"plan", "stage", "replay",
                                             "publish"}));
}

TEST(ExplainReport, HandBuiltHistoryVerdicts) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  core::ReplayStats stats = RunFullExplain(u->get(), RemoveOp(5));
  const WhatIfReport& report = stats.report;

  struct Want {
    uint64_t index;
    TxnVerdict verdict;
  };
  const Want wants[] = {
      {5, TxnVerdict::kRetroTarget},
      {6, TxnVerdict::kPrunedPredicateDisjoint},
      {7, TxnVerdict::kPrunedColumnDisjoint},
      {8, TxnVerdict::kPrunedReadOnly},
      {9, TxnVerdict::kReplayed},
  };
  for (const Want& w : wants) {
    const obs::TxnExplain* te = report.FindTxn(w.index);
    ASSERT_NE(te, nullptr) << "txn " << w.index << " missing";
    EXPECT_EQ(te->verdict, w.verdict)
        << "txn " << w.index << " got " << obs::TxnVerdictName(te->verdict);
    EXPECT_FALSE(te->evidence.empty());
  }
  // The replayed member carries its column-cluster ordinal; the
  // predicate-refuted one never joins the column closure (the veto runs
  // inside it), and its evidence carries the refuting region pair.
  EXPECT_GE(report.FindTxn(9)->cluster_id, 0);
  EXPECT_EQ(report.FindTxn(6)->cluster_id, -1);
  EXPECT_NE(report.FindTxn(6)->evidence.find("vs members"),
            std::string::npos)
      << report.FindTxn(6)->evidence;
  EXPECT_EQ(report.FindTxn(7)->cluster_id, -1);
  // Evidence carries the footprint the verdict was decided on.
  EXPECT_EQ(report.FindTxn(7)->write_tables,
            std::vector<std::string>{"u"});
}

TEST(ExplainReport, HashJumpSkipCarriesDigest) {
  const std::vector<std::string> history = {
      "CREATE TABLE t (id INT PRIMARY KEY, v INT);",
      "INSERT INTO t VALUES (1, 10);",
      "UPDATE t SET v = 50 WHERE id = 1;",
      "UPDATE t SET v = 60 WHERE id = 1;",
      "UPDATE t SET v = v + 1 WHERE id = 1;",
  };
  auto u = Universe::Build(history);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  // Removing #3: replaying #4 (a blind same-cell write) converges the
  // digest with the original timeline, so #5 never executes.
  core::ReplayStats stats =
      RunFullExplain(u->get(), RemoveOp(3), /*hash_jumper=*/true);
  const WhatIfReport& report = stats.report;
  ASSERT_TRUE(report.hash_jump);
  EXPECT_EQ(report.hash_jump_index, 4u);
  const obs::TxnExplain* te = report.FindTxn(5);
  ASSERT_NE(te, nullptr);
  EXPECT_EQ(te->verdict, TxnVerdict::kHashJumpSkip);
  EXPECT_EQ(te->digest.size(), 16u) << te->digest;
  EXPECT_EQ(report.CountFor(TxnVerdict::kHashJumpSkip), 1u);
  // The skip moved the verdict out of the replayed bucket.
  EXPECT_EQ(report.CountFor(TxnVerdict::kReplayed), 1u);
}

TEST(ExplainReport, JsonRoundTrip) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  core::ReplayStats stats = RunFullExplain(u->get(), RemoveOp(5));
  const WhatIfReport& report = stats.report;

  std::string json = report.ToJson();
  auto parsed = WhatIfReport::FromJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, report.op);
  EXPECT_EQ(parsed->target_index, report.target_index);
  EXPECT_EQ(parsed->suffix_size, report.suffix_size);
  EXPECT_EQ(parsed->verdict_counts, report.verdict_counts);
  EXPECT_EQ(parsed->txns.size(), report.txns.size());
  for (size_t i = 0; i < report.txns.size(); ++i) {
    EXPECT_EQ(parsed->txns[i].index, report.txns[i].index);
    EXPECT_EQ(parsed->txns[i].verdict, report.txns[i].verdict);
    EXPECT_EQ(parsed->txns[i].cluster_id, report.txns[i].cluster_id);
  }
  // Emission is deterministic: a round-trip re-serializes identically.
  EXPECT_EQ(parsed->ToJson(), json);

  EXPECT_FALSE(WhatIfReport::FromJson("{").has_value());
  EXPECT_FALSE(WhatIfReport::FromJson("[1,2]").has_value());
}

TEST(ExplainReport, StrategyEntryRoundTripsRendersAndCounts) {
  // 300 read-modify-writes of one row: the closure covers the suffix, so
  // kAuto abandons the plan at the first checkpoint and re-executes.
  std::vector<std::string> history = {
      "CREATE TABLE c (id INT PRIMARY KEY, v INT);",
      "INSERT INTO c VALUES (1, 0);"};
  for (int i = 0; i < 300; ++i) {
    history.push_back("UPDATE c SET v = v * 2 + 1 WHERE id = 1;");
  }
  auto u = Universe::Build(history);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  obs::Counter* naive_decisions = obs::Registry::Global().counter(
      "uv.whatif.strategy{kind=\"naive\"}");
  const uint64_t before = naive_decisions->Value();
  ModeConfig config;
  config.mode = core::ReplayMode::kAuto;
  core::ReplayStats stats;
  ASSERT_TRUE((*u)->RunSelective(RemoveOp(3), config, &stats).ok());
  EXPECT_EQ(naive_decisions->Value(), before + 1);

  const obs::StrategyChoice& s = stats.report.strategy;
  EXPECT_EQ(s.kind, "naive");
  EXPECT_TRUE(s.automatic);
  EXPECT_EQ(s.scanned, core::kFirstStrategyCheckpoint);
  std::string json = stats.report.ToJson();
  auto parsed = WhatIfReport::FromJson(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->strategy.kind, s.kind);
  EXPECT_EQ(parsed->strategy.automatic, s.automatic);
  EXPECT_EQ(parsed->strategy.scanned, s.scanned);
  EXPECT_EQ(parsed->strategy.members, s.members);
  EXPECT_NEAR(parsed->strategy.theta, s.theta, 1e-4);
  EXPECT_EQ(parsed->strategy.selective_est_us, s.selective_est_us);
  EXPECT_EQ(parsed->strategy.naive_est_us, s.naive_est_us);
  EXPECT_EQ(parsed->ToJson(), json);
  std::string text = stats.report.ToText();
  EXPECT_NE(text.find("strategy: naive (auto: "), std::string::npos) << text;
}

TEST(ExplainReport, FlightRecorderDumpsOnCrashFailpoint) {
  std::string path = ::testing::TempDir() + "/flight_dump_test.json";
  std::remove(path.c_str());
  auto& recorder = obs::FlightRecorder::Global();
  recorder.Clear();
  recorder.SetDumpPath(path);

  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  auto& registry = fault::FailpointRegistry::Global();
  ASSERT_TRUE(registry.ArmFromSpec("replay.stage.pre=crash:once").ok());
  ModeConfig config;
  config.explain = ExplainLevel::kFull;
  bool crashed = false;
  try {
    core::ReplayStats stats;
    (void)(*u)->RunSelective(RemoveOp(5), config, &stats);
  } catch (const fault::CrashException&) {
    crashed = true;
  }
  registry.DisarmAll();
  recorder.SetDumpPath("");
  ASSERT_TRUE(crashed);

  std::string reason;
  auto reports = obs::FlightRecorder::ReadDump(path, &reason);
  ASSERT_TRUE(reports.has_value()) << "dump at " << path << " unreadable";
  EXPECT_NE(reason.find("replay.stage.pre"), std::string::npos) << reason;
  ASSERT_FALSE(reports->empty());
  // The newest entry is the in-flight analysis the crash interrupted.
  const WhatIfReport& last = reports->back();
  EXPECT_EQ(last.op, "remove");
  EXPECT_EQ(last.target_index, 5u);
  bool has_fatal = false;
  for (const auto& ev : last.events) {
    if (ev.kind == "fatal") has_fatal = true;
  }
  EXPECT_TRUE(has_fatal);
  std::remove(path.c_str());
}

TEST(ExplainReport, SummaryLevelSkipsTxnVector) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ModeConfig config;
  config.explain = ExplainLevel::kSummary;
  core::ReplayStats stats;
  ASSERT_TRUE((*u)->RunSelective(RemoveOp(5), config, &stats).ok());
  EXPECT_TRUE(stats.report.txns.empty());
  uint64_t total = 0;
  for (uint64_t n : stats.report.verdict_counts) total += n;
  EXPECT_EQ(total, stats.report.suffix_size);
}

TEST(ExplainReport, TextRenderingAndDrillDown) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  core::ReplayStats stats = RunFullExplain(u->get(), RemoveOp(5));
  std::string text = stats.report.ToText();
  EXPECT_NE(text.find("what-if remove @5"), std::string::npos) << text;
  EXPECT_NE(text.find("pruned-predicate-disjoint"), std::string::npos);
  EXPECT_NE(text.find("phases:"), std::string::npos);
  // Drill-down renders only the requested transaction, with its footprint.
  std::string one = stats.report.ToText(7);
  EXPECT_NE(one.find("#7"), std::string::npos);
  EXPECT_EQ(one.find("#6"), std::string::npos);
  EXPECT_NE(one.find("writes: u"), std::string::npos);
}

TEST(ExplainOracle, CheckCaseExplainPassesOnVerdictHistory) {
  WhatIfCase c;
  c.history = kVerdictHistory;
  c.kind = core::RetroOp::Kind::kRemove;
  c.index = 5;
  auto violations = oracle::CheckCaseExplain(c);
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  EXPECT_TRUE(violations->empty())
      << "first violation: " << (*violations)[0];
}

TEST(ExplainOracle, FixedSeedFuzzSmokeFindsNoUnsoundReasons) {
  oracle::FuzzOptions options;
  options.seed = 7;
  options.histories = 25;
  options.check_explain = true;
  options.modes.clear();  // explain checks only: keep the smoke focused
  oracle::FuzzReport report = oracle::Fuzz(options);
  EXPECT_EQ(report.cases_run, 25u);
  EXPECT_EQ(report.explain_checked, 25u);
  EXPECT_EQ(report.explain_violations, 0u)
      << (report.failures.empty() ? std::string()
                                  : report.failures[0].result.error);
}

// --- Prometheus exporter conformance (satellite: exposition format) --------

TEST(ExplainMetrics, PrometheusEscapesLabelsAndEmitsInfBucket) {
  auto& registry = obs::Registry::Global();
  registry.counter("uv.test.labeled{reason=\"a\\b\"q\nz\"}")->Add(3);
  registry.histogram("uv.test.lat_us{op=\"x\"}")->Record(10);
  std::string text = registry.ExportPrometheus();

  // Label values escape backslash, quote and newline per the exposition
  // format; the base name is sanitized to [a-zA-Z0-9_].
  EXPECT_NE(text.find("uv_test_labeled{reason=\"a\\\\b\\\"q\\nz\"} 3"),
            std::string::npos)
      << text;

  // promtool-style parse: every non-comment line is `name[{labels}] value`
  // with balanced, quoted label values and a numeric value.
  std::istringstream lines(text);
  std::string line;
  uint64_t inf_bucket = 0, hist_count = 0;
  bool saw_inf = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    std::string series = line.substr(0, sp);
    std::string value = line.substr(sp + 1);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric value in: " << line;
    size_t brace = series.find('{');
    std::string base = series.substr(0, brace);
    for (char ch : base) {
      bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                (ch >= '0' && ch <= '9') || ch == '_';
      EXPECT_TRUE(ok) << "bad metric name char in: " << line;
    }
    if (brace != std::string::npos) {
      EXPECT_EQ(series.back(), '}') << line;
      // Quotes must balance outside escapes.
      int quotes = 0;
      for (size_t i = brace; i < series.size(); ++i) {
        if (series[i] == '"' && series[i - 1] != '\\') ++quotes;
      }
      EXPECT_EQ(quotes % 2, 0) << line;
    }
    if (series.rfind("uv_test_lat_us_bucket", 0) == 0 &&
        series.find("le=\"+Inf\"") != std::string::npos) {
      saw_inf = true;
      inf_bucket = std::strtoull(value.c_str(), nullptr, 10);
    }
    if (series.rfind("uv_test_lat_us_count", 0) == 0) {
      hist_count = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  // The +Inf bucket exists, is cumulative, and equals the series count.
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_bucket, hist_count);
  EXPECT_GE(hist_count, 1u);
}

TEST(ExplainMetrics, VerdictCountersAreLabeled) {
  auto u = Universe::Build(kVerdictHistory);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  (void)RunFullExplain(u->get(), RemoveOp(5));
  obs::Snapshot snap = obs::Registry::Global().Collect();
  const obs::CounterSnapshot* c = snap.FindCounter(
      "uv.explain.verdict{reason=\"pruned-column-disjoint\"}");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->value, 1u);
}

}  // namespace
}  // namespace ultraverse
