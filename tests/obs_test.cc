// Tests for the observability subsystem (src/obs): sharded metrics with
// exact merge-on-read totals under concurrency, exporter shapes, the
// trace-span ring buffers, and an end-to-end what-if trace validated as
// Chrome trace-event JSON with properly nested B/E pairs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqldb/database.h"

namespace ultraverse {
namespace {

// --- Minimal JSON parser (validation only — no external deps) ---------------

struct Json {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    bool ok = Value(out);
    Ws();
    return ok && pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && std::isspace((unsigned char)s_[pos_])) ++pos_;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Value(Json* out) {
    Ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = Json::Kind::kStr;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }
  bool String(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        char e = s_[pos_ + 1];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 5 >= s_.size()) return false;
            *out += '?';  // codepoint identity is irrelevant for these tests
            pos_ += 4;
            break;
          }
          default: return false;
        }
        pos_ += 2;
      } else {
        *out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number(Json* out) {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit((unsigned char)s_[pos_]) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' ||
            s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::Kind::kNum;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool Array(Json* out) {
    out->kind = Json::Kind::kArr;
    ++pos_;  // '['
    Ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!Value(&v)) return false;
      out->arr.push_back(std::move(v));
      Ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Object(Json* out) {
    out->kind = Json::Kind::kObj;
    ++pos_;  // '{'
    Ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Ws();
      std::string key;
      if (pos_ >= s_.size() || !String(&key)) return false;
      Ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!Value(&v)) return false;
      out->obj.emplace(std::move(key), std::move(v));
      Ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Parses `text` as a Chrome trace and checks every thread's B/E events
/// form properly nested, name-matched pairs. Returns the distinct span
/// names seen.
std::set<std::string> ValidateChromeTrace(const std::string& text) {
  Json root;
  EXPECT_TRUE(JsonParser(text).Parse(&root)) << "trace is not valid JSON";
  EXPECT_EQ(root.kind, Json::Kind::kObj);
  const Json* events = root.Get("traceEvents");
  EXPECT_NE(events, nullptr) << "missing traceEvents";
  std::set<std::string> names;
  if (!events) return names;
  EXPECT_EQ(events->kind, Json::Kind::kArr);

  std::map<double, std::vector<std::string>> stacks;  // tid -> open names
  std::map<double, double> last_ts;                   // tid -> prev event ts
  for (const Json& ev : events->arr) {
    EXPECT_EQ(ev.kind, Json::Kind::kObj);
    const Json* name = ev.Get("name");
    const Json* ph = ev.Get("ph");
    const Json* ts = ev.Get("ts");
    const Json* tid = ev.Get("tid");
    const Json* pid = ev.Get("pid");
    EXPECT_TRUE(name && ph && ts && tid && pid) << "event missing field";
    if (!name || !ph || !ts || !tid) continue;
    EXPECT_TRUE(ph->str == "B" || ph->str == "E")
        << "unexpected phase " << ph->str;
    auto& stack = stacks[tid->num];
    auto it = last_ts.find(tid->num);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->num, it->second)
          << "per-thread timestamps must be non-decreasing";
    }
    last_ts[tid->num] = ts->num;
    if (ph->str == "B") {
      stack.push_back(name->str);
      names.insert(name->str);
    } else {
      EXPECT_FALSE(stack.empty())
          << "E event '" << name->str << "' with no open span";
      if (stack.empty()) continue;
      EXPECT_EQ(stack.back(), name->str)
          << "E event does not close the innermost open span";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << "tid " << tid << " ended with " << stack.size() << " open span(s)";
  }
  return names;
}

// --- Metrics ----------------------------------------------------------------

TEST(MetricsTest, ShardedCounterExactTotalUnderConcurrency) {
  obs::Registry::Global().ResetForTest();
  obs::Counter* c = obs::Registry::Global().counter("test.counter.hammer");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread)
      << "shard merge must lose no increments";
}

TEST(MetricsTest, GaugeDeltasMergeExactly) {
  obs::Registry::Global().ResetForTest();
  obs::Gauge* g = obs::Registry::Global().gauge("test.gauge");
  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([g] {
      for (int i = 0; i < 10000; ++i) g->Add(+2);
      for (int i = 0; i < 10000; ++i) g->Add(-1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(g->Value(), int64_t(kThreads) * 10000);
  g->Set(-5);
  EXPECT_EQ(g->Value(), -5);
}

TEST(MetricsTest, HistogramConcurrentRecordExactCountAndSum) {
  obs::Registry::Global().ResetForTest();
  obs::Histogram* h = obs::Registry::Global().histogram("test.hist.hammer");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h->Record(t + 1);
    });
  }
  for (auto& w : workers) w.join();
  obs::HistogramSnapshot snap = h->Snapshot("test.hist.hammer");
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += (t + 1) * kPerThread;
  EXPECT_EQ(snap.sum_us, expected_sum);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count) << "buckets must partition the count";
}

TEST(MetricsTest, BucketIndexExponentialBounds) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11u);
  // Catch-all: enormous values land in the last bucket.
  EXPECT_EQ(obs::Histogram::BucketIndex(UINT64_MAX),
            obs::kHistogramBuckets - 1);
}

TEST(MetricsTest, QuantileUpperBound) {
  obs::Registry::Global().ResetForTest();
  obs::Histogram* h = obs::Registry::Global().histogram("test.hist.q");
  for (int i = 0; i < 90; ++i) h->Record(10);     // bucket 4: [8,16)
  for (int i = 0; i < 10; ++i) h->Record(5000);   // bucket 13: [4096,8192)
  obs::HistogramSnapshot snap = h->Snapshot("q");
  EXPECT_EQ(snap.QuantileUpperBoundUs(0.5), 16u);
  EXPECT_EQ(snap.QuantileUpperBoundUs(0.99), 8192u);
}

TEST(MetricsTest, PrometheusExportShape) {
  obs::Registry::Global().ResetForTest();
  obs::Registry::Global().counter("test.prom.counter")->Add(7);
  obs::Registry::Global().gauge("test.prom.gauge")->Set(-3);
  obs::Registry::Global().histogram("test.prom.hist")->Record(100);
  std::string text = obs::Registry::Global().ExportPrometheus();
  EXPECT_NE(text.find("test_prom_counter 7"), std::string::npos) << text;
  EXPECT_NE(text.find("test_prom_gauge -3"), std::string::npos) << text;
  EXPECT_NE(text.find("test_prom_hist_count 1"), std::string::npos) << text;
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_prom_hist histogram"), std::string::npos);
}

TEST(MetricsTest, JsonExportParsesAndRoundTrips) {
  obs::Registry::Global().ResetForTest();
  obs::Registry::Global().counter("test.json.counter")->Add(42);
  obs::Registry::Global().histogram("test.json.hist")->Record(3);
  std::string text = obs::Registry::Global().ExportJson();
  Json root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  const Json* counters = root.Get("counters");
  ASSERT_NE(counters, nullptr);
  const Json* c = counters->Get("test.json.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->num, 42);
  const Json* hists = root.Get("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* h = hists->Get("test.json.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Get("count")->num, 1);
  EXPECT_EQ(h->Get("sum_us")->num, 3);
  EXPECT_EQ(h->Get("buckets")->arr.size(), obs::kHistogramBuckets);
}

TEST(MetricsTest, ScopedLatencyGatedByTimingFlag) {
  obs::Registry::Global().ResetForTest();
  obs::Histogram* h = obs::Registry::Global().histogram("test.gated");
  obs::SetTiming(false);
  { obs::ScopedLatency latency(h); }
  EXPECT_EQ(h->Snapshot("g").count, 0u) << "disabled timing must not record";
  obs::SetTiming(true);
  { obs::ScopedLatency latency(h); }
  obs::SetTiming(false);
  EXPECT_EQ(h->Snapshot("g").count, 1u);
}

TEST(MetricsTest, ResetForTestKeepsRegisteredPointersValid) {
  obs::Counter* c = obs::Registry::Global().counter("test.reset.counter");
  c->Add(5);
  obs::Registry::Global().ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  c->Add(2);  // cached pointer still works after reset
  EXPECT_EQ(c->Value(), 2u);
  EXPECT_EQ(obs::Registry::Global().counter("test.reset.counter"), c);
}

// --- Tracing ----------------------------------------------------------------

TEST(TraceTest, DisabledTracerRecordsNothing) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Disable();
  size_t before = obs::Tracer::Global().recorded_spans();
  {
    obs::TraceSpan span("trace.disabled", {{"k", 1}});
  }
  EXPECT_EQ(obs::Tracer::Global().recorded_spans(), before);
}

TEST(TraceTest, NestedSpansFromManyThreadsEmitBalancedPairs) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        obs::TraceSpan outer("trace.outer", {{"thread", t}, {"i", i}});
        {
          obs::TraceSpan mid("trace.mid");
          obs::TraceSpan inner("trace.inner", {{"leaf", "yes"}});
        }
        obs::TraceSpan sibling("trace.sibling");
      }
    });
  }
  for (auto& w : workers) w.join();
  obs::Tracer::Global().Disable();

  std::string json = obs::Tracer::Global().DumpJson();
  std::set<std::string> names = ValidateChromeTrace(json);
  EXPECT_TRUE(names.count("trace.outer"));
  EXPECT_TRUE(names.count("trace.mid"));
  EXPECT_TRUE(names.count("trace.inner"));
  EXPECT_TRUE(names.count("trace.sibling"));
  EXPECT_EQ(obs::Tracer::Global().recorded_spans(),
            size_t(kThreads) * 50 * 4);
  obs::Tracer::Global().Clear();
}

TEST(TraceTest, RingOverflowDropsOldestButStaysValid) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  const size_t total = obs::Tracer::kRingCapacity + 500;
  std::thread hammer([&] {
    for (size_t i = 0; i < total; ++i) {
      obs::TraceSpan span("trace.flood");
    }
  });
  hammer.join();
  obs::Tracer::Global().Disable();
  EXPECT_GE(obs::Tracer::Global().dropped_spans(), 500u);
  ValidateChromeTrace(obs::Tracer::Global().DumpJson());
  obs::Tracer::Global().Clear();
}

TEST(TraceTest, SpanArgsSerializedIntoBeginEvent) {
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  {
    obs::TraceSpan span("trace.args",
                        {{"n", 42}, {"ratio", 0.5}, {"who", "alice"}});
  }
  obs::Tracer::Global().Disable();
  std::string json = obs::Tracer::Global().DumpJson();
  Json root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  const Json* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const Json& ev : events->arr) {
    if (ev.Get("name")->str != "trace.args" || ev.Get("ph")->str != "B") {
      continue;
    }
    const Json* args = ev.Get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Get("n")->num, 42);
    EXPECT_EQ(args->Get("ratio")->num, 0.5);
    EXPECT_EQ(args->Get("who")->str, "alice");
    found = true;
  }
  EXPECT_TRUE(found);
  obs::Tracer::Global().Clear();
}

// --- Pipeline instrumentation ----------------------------------------------

TEST(ObsPipelineTest, StagingFaultInCountsReadFallback) {
  obs::Registry::Global().ResetForTest();
  sql::Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE a (id INT PRIMARY KEY)", 1).ok());
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE b (id INT PRIMARY KEY)", 2).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO b VALUES (7)", 3).ok());
  std::unique_ptr<sql::Database> staged = db.CloneTables({"a"});
  staged->SetReadFallback(&db, nullptr);
  EXPECT_EQ(
      obs::Registry::Global().counter("uv.staging.tables_staged")->Value(), 1u);
  uint64_t faults_before =
      obs::Registry::Global().counter("uv.staging.fault_in")->Value();
  auto r = staged->ExecuteSql("SELECT id FROM b", 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(obs::Registry::Global().counter("uv.staging.fault_in")->Value(),
            faults_before + 1)
      << "reading an unstaged table must fault it in exactly once";
}

TEST(ObsPipelineTest, WhatIfTraceCoversThePipeline) {
  obs::Registry::Global().ResetForTest();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  obs::SetTiming(true);

  core::Ultraverse::Options opts;
  opts.hash_jumper = true;
  opts.eager_hash_log = true;
  core::Ultraverse uv(opts);
  ASSERT_TRUE(uv.ExecuteSql("CREATE TABLE m (uid INT PRIMARY KEY, s INT)")
                  .ok());
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO m VALUES (1, 0)").ok());
  ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = s + 5 WHERE uid = 1").ok());
  uint64_t target = uv.log()->last_index();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = s + 1 WHERE uid = 1").ok());
  }
  ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = 777 WHERE uid = 1").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(uv.ExecuteSql("UPDATE m SET s = s + 1 WHERE uid = 1").ok());
  }
  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, core::SystemMode::kTD);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->hash_jump);

  obs::SetTiming(false);
  obs::Tracer::Global().Disable();

  // The trace must be a valid Chrome trace and cover every pipeline layer.
  std::string path = "obs_test_trace.json";
  ASSERT_TRUE(obs::Tracer::Global().WriteFile(path).ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::set<std::string> names = ValidateChromeTrace(text);
  std::remove(path.c_str());

  for (const char* required :
       {"whatif", "replay.execute", "replay.plan", "replay.stage",
        "replay.replay", "replay.publish", "replay.slot", "depgraph.plan",
        "staging.clone_tables", "staging.rollback", "hashjumper.probe"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  EXPECT_GE(names.size(), 8u);

  // The stats snapshot carries the merged metric view of the same run.
  const obs::Snapshot& snap = stats->obs;
  const obs::CounterSnapshot* probes = snap.FindCounter("uv.hashjumper.probes");
  ASSERT_NE(probes, nullptr);
  EXPECT_GT(probes->value, 0u);
  const obs::CounterSnapshot* hits = snap.FindCounter("uv.hashjumper.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GE(hits->value, 1u);
  const obs::CounterSnapshot* staged =
      snap.FindCounter("uv.staging.tables_staged");
  ASSERT_NE(staged, nullptr);
  EXPECT_GE(staged->value, 1u);
  const obs::HistogramSnapshot* total =
      snap.FindHistogram("uv.replay.phase.total_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 1u);
  const obs::HistogramSnapshot* exec_lat =
      snap.FindHistogram("uv.sqldb.exec.latency_us.update");
  ASSERT_NE(exec_lat, nullptr) << "per-kind exec latency must be recorded "
                                  "while timing is enabled";
  EXPECT_GT(exec_lat->count, 0u);
  obs::Tracer::Global().Clear();
}

TEST(ObsPipelineTest, ExecCountersTrackStatementKinds) {
  obs::Registry::Global().ResetForTest();
  sql::Database db;
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY)", 1).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1)", 2).ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (2)", 3).ok());
  ASSERT_TRUE(db.ExecuteSql("SELECT * FROM t", 4).ok());
  obs::Snapshot snap = obs::Registry::Global().Collect();
  EXPECT_EQ(snap.FindCounter("uv.sqldb.exec.count.ddl")->value, 1u);
  EXPECT_EQ(snap.FindCounter("uv.sqldb.exec.count.insert")->value, 2u);
  EXPECT_EQ(snap.FindCounter("uv.sqldb.exec.count.select")->value, 1u);
}

}  // namespace
}  // namespace ultraverse
