// Micro-benchmarks (google-benchmark) for the performance-critical
// substrate pieces: the lock-free MPMC ring vs a mutexed queue (the replay
// scheduler's ready queue, §5 Implementation), the incremental table hash
// vs recomputation (§4.5), SHA-256 throughput, and the SQL parser.
#include <benchmark/benchmark.h>

#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "analysis/static_rw.h"
#include "fault/failpoint.h"
#include "sqldb/wal/wal.h"
#include "bench_util.h"
#include "core/dep_graph.h"
#include "core/rw_sets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqldb/database.h"
#include "sqldb/exec_engine.h"
#include "sqldb/parser.h"
#include "sqldb/query_log.h"
#include "sqldb/value.h"
#include "sqldb/vm/compiler.h"
#include "sqldb/vm/plan_cache.h"
#include "util/mpmc_queue.h"
#include "util/sha256.h"
#include "util/table_hash.h"
#include "workloads/raw_history.h"

namespace ultraverse {
namespace {

void BM_MpmcQueueThroughput(benchmark::State& state) {
  const int threads = int(state.range(0));
  for (auto _ : state) {
    MpmcQueue<uint32_t> queue(1024);
    std::atomic<uint64_t> popped{0};
    const uint64_t per_thread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        uint32_t v;
        for (uint64_t i = 0; i < per_thread; ++i) {
          while (!queue.TryPush(uint32_t(i))) std::this_thread::yield();
          if (queue.TryPop(&v)) popped.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(popped.load());
  }
  state.SetItemsProcessed(state.iterations() * threads * 20000);
}
BENCHMARK(BM_MpmcQueueThroughput)->Arg(1)->Arg(4)->Arg(8);

void BM_MutexQueueThroughput(benchmark::State& state) {
  const int threads = int(state.range(0));
  for (auto _ : state) {
    std::deque<uint32_t> queue;
    std::mutex mu;
    std::atomic<uint64_t> popped{0};
    const uint64_t per_thread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (uint64_t i = 0; i < per_thread; ++i) {
          {
            std::lock_guard<std::mutex> g(mu);
            queue.push_back(uint32_t(i));
          }
          std::lock_guard<std::mutex> g(mu);
          if (!queue.empty()) {
            queue.pop_front();
            popped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    benchmark::DoNotOptimize(popped.load());
  }
  state.SetItemsProcessed(state.iterations() * threads * 20000);
}
BENCHMARK(BM_MutexQueueThroughput)->Arg(1)->Arg(4)->Arg(8);

void BM_Sha256(benchmark::State& state) {
  std::string data(size_t(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

// Hash-jumper's core claim: maintaining the table hash costs O(rows
// touched), not O(table size).
void BM_TableHashIncremental(benchmark::State& state) {
  const int64_t table_rows = state.range(0);
  TableHash hash;
  for (int64_t i = 0; i < table_rows; ++i) {
    hash.AddRow("row-" + std::to_string(i));
  }
  int64_t i = 0;
  for (auto _ : state) {
    // One update = remove old image + add new image, independent of size.
    hash.RemoveRow("row-" + std::to_string(i % table_rows));
    hash.AddRow("row-" + std::to_string(i % table_rows) + "'");
    hash.AddRow("row-" + std::to_string(i % table_rows));
    hash.RemoveRow("row-" + std::to_string(i % table_rows) + "'");
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableHashIncremental)->Arg(100)->Arg(10000)->Arg(1000000);

// Dependency-analysis throughput: entries/second the background logger
// (§5.3) sustains.
void BM_AnalyzeEntry(benchmark::State& state) {
  core::QueryAnalyzer analyzer;
  auto feed = [&](const std::string& text) {
    sql::LogEntry entry;
    entry.sql = text;
    entry.stmt = *sql::Parser::ParseStatement(text);
    return entry;
  };
  (void)analyzer.AnalyzeEntry(
      feed("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)"));
  sql::LogEntry update = feed("UPDATE t SET a = b + 1 WHERE id = 42");
  for (auto _ : state) {
    auto rw = analyzer.AnalyzeEntry(update);
    benchmark::DoNotOptimize(rw.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeEntry);

// --- Staging cost (§4.4) ----------------------------------------------------
// Cost of staging the temporary replay database: cloning every table vs
// selectively CoW-cloning only the tables the replay plan touches (here 2,
// the common minority-table what-if). Populated via direct Table::Insert
// with journals trimmed, so the measurement isolates the clone itself.

std::unique_ptr<sql::Database> BuildStagingDb(int64_t rows, int64_t tables) {
  auto db = std::make_unique<sql::Database>();
  uint64_t commit = 0;
  for (int64_t t = 0; t < tables; ++t) {
    std::string name = "t" + std::to_string(t);
    (void)db->ExecuteSql("CREATE TABLE " + name + " (id INT PRIMARY KEY)",
                         ++commit);
    sql::Table* table = db->FindTable(name);
    for (int64_t i = 0; i < rows; ++i) {
      (void)table->Insert({sql::Value::Int(i)}, ++commit);
    }
  }
  db->TrimJournalsBefore(commit + 1);
  return db;
}

void BM_StageFullClone(benchmark::State& state) {
  auto db = BuildStagingDb(state.range(0), state.range(1));
  size_t staged_bytes = 0;
  for (auto _ : state) {
    std::unique_ptr<sql::Database> temp = db->Clone();
    benchmark::DoNotOptimize(temp.get());
    staged_bytes = temp->ApproxOwnedBytes();
  }
  state.counters["staged_owned_bytes"] = double(staged_bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageFullClone)
    ->ArgsProduct({{1000, 10000, 100000}, {2, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_StageSelectiveClone(benchmark::State& state) {
  auto db = BuildStagingDb(state.range(0), state.range(1));
  const std::vector<std::string> staged = {"t0", "t1"};
  size_t staged_bytes = 0;
  for (auto _ : state) {
    std::unique_ptr<sql::Database> temp = db->CloneTables(staged);
    temp->SetReadFallback(db.get(), nullptr);
    benchmark::DoNotOptimize(temp.get());
    staged_bytes = temp->ApproxOwnedBytes();
  }
  state.counters["staged_owned_bytes"] = double(staged_bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StageSelectiveClone)
    ->ArgsProduct({{1000, 10000, 100000}, {2, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

// --- Observability overhead (DESIGN.md "Observability") ---------------------
// The obs subsystem's contract: counters are one relaxed add to a thread-
// local shard; a disabled TraceSpan/ScopedLatency is one relaxed load and
// must never read the clock.

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter* const c =
      obs::Registry::Global().counter("uv.bench.micro.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsTraceSpan(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::Tracer::Global().Clear();
  if (enabled) {
    obs::Tracer::Global().Enable();
  } else {
    obs::Tracer::Global().Disable();
  }
  for (auto _ : state) {
    obs::TraceSpan span("bench.micro.span", {{"i", 1}});
    benchmark::ClobberMemory();
  }
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTraceSpan)->Arg(0)->Arg(1);

void BM_ObsScopedLatency(benchmark::State& state) {
  static obs::Histogram* const h =
      obs::Registry::Global().histogram("uv.bench.micro.latency_us");
  obs::SetTiming(state.range(0) != 0);
  for (auto _ : state) {
    obs::ScopedLatency latency(h);
    benchmark::ClobberMemory();
  }
  obs::SetTiming(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedLatency)->Arg(0)->Arg(1);

// Commits the 200-transaction epinions history into `uv`, pins it in one
// snapshot and sets `op` to the remove of its retro target; nullptr after
// SkipWithError. The what-if benches below run analyze-only on that
// snapshot: a publishing WhatIf rewrites the history, so the target would
// move (and run out) across iterations.
std::shared_ptr<const core::HistorySnapshot> PinEpinionsHistory(
    core::Ultraverse* uv, benchmark::State& state, core::RetroOp* op) {
  workload::RawHistory h = workload::MakeRawHistory("epinions", 200, 0.5, 11);
  for (const auto& ddl : h.schema_sql) {
    if (!uv->ExecuteSql(ddl).ok()) {
      state.SkipWithError("schema setup failed");
      return nullptr;
    }
  }
  for (const auto& q : h.queries) {
    if (!uv->ExecuteSql(q).ok()) {
      state.SkipWithError("history setup failed");
      return nullptr;
    }
  }
  auto snap = uv->SnapshotHistory();
  if (!snap.ok()) {
    state.SkipWithError("snapshot failed");
    return nullptr;
  }
  op->kind = core::RetroOp::Kind::kRemove;
  op->index = uint64_t(h.schema_sql.size()) + h.retro_index;
  return *snap;
}

// End-to-end instrumentation overhead: the same retroactive what-if with
// the obs subsystem fully off (Arg 0) vs tracing + latency timing on
// (Arg 1). The constraint is <5% regression with obs disabled; the Arg(1)
// row bounds the cost users opt into with ULTRA_TRACE/--trace-out.
void BM_WhatIfReplayObs(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  core::Ultraverse uv;
  core::RetroOp op;
  auto snap = PinEpinionsHistory(&uv, state, &op);
  if (!snap) return;
  if (obs_on) {
    obs::SetTiming(true);
    obs::Tracer::Global().Enable();
  }
  for (auto _ : state) {
    auto result = uv.WhatIfAnalyzeAt(*snap, op, core::SystemMode::kTD);
    if (!result.ok()) {
      state.SkipWithError("what-if failed");
      break;
    }
    benchmark::DoNotOptimize(result->stats.replayed);
  }
  if (obs_on) {
    obs::SetTiming(false);
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfReplayObs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Decision-provenance overhead (DESIGN.md §13): the same what-if at the
// always-on summary level (Arg 0), which records phase wall/CPU timings,
// verdict totals and layer-counter deltas, vs the full level (Arg 1),
// which adds one TxnExplain per suffix transaction. EXPERIMENTS.md records
// the measured delta.
void BM_ExplainOverhead(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  core::Ultraverse::Options uv_opts;
  uv_opts.explain =
      full ? obs::ExplainLevel::kFull : obs::ExplainLevel::kSummary;
  core::Ultraverse uv(uv_opts);
  core::RetroOp op;
  auto snap = PinEpinionsHistory(&uv, state, &op);
  if (!snap) return;
  for (auto _ : state) {
    auto result = uv.WhatIfAnalyzeAt(*snap, op, core::SystemMode::kTD);
    if (!result.ok()) {
      state.SkipWithError("what-if failed");
      break;
    }
    benchmark::DoNotOptimize(result->stats.report.replayed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExplainOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Static pre-filter (DESIGN.md §10) --------------------------------------
// Replay-plan cost with and without the static table-footprint pre-filter
// on a many-table history where most commits are provably unrelated to the
// target. The pre-filter must never be slower than baseline on the
// unrelated-heavy shape it exists for; EXPERIMENTS.md records the delta.

struct PrefilterFixture {
  std::vector<core::QueryRW> analysis;
  std::vector<core::TableFootprint> footprints;
  core::QueryRW target_rw;
};

PrefilterFixture BuildPrefilterFixture(int64_t tables, int64_t commits) {
  sql::QueryLog log;
  core::QueryAnalyzer analyzer;
  auto feed = [&](const std::string& text) {
    sql::LogEntry entry;
    entry.sql = text;
    entry.stmt = *sql::Parser::ParseStatement(text);
    entry.index = log.Append(entry);
    return *log.entries().rbegin();
  };
  for (int64_t t = 0; t < tables; ++t) {
    (void)analyzer.AnalyzeEntry(
        feed("CREATE TABLE t" + std::to_string(t) +
             " (id INT PRIMARY KEY, v INT)"));
  }
  PrefilterFixture fx;
  for (int64_t i = 0; i < commits; ++i) {
    // Round-robin over tables: only 1/tables of the suffix shares a table
    // with the target (t0), the shape the footprint pre-filter skips.
    std::string table = "t" + std::to_string(i % tables);
    auto rw = analyzer.AnalyzeEntry(
        feed("UPDATE " + table + " SET v = " + std::to_string(i) +
             " WHERE id = " + std::to_string(i / tables)));
    if (rw.ok()) {
      analyzer.CanonicalizeRowSets(&*rw);
      fx.analysis.push_back(*rw);
    }
  }
  fx.footprints = analysis::StaticLogFootprints(log);
  // Align with the DML suffix: drop the DDL prefix entries.
  fx.footprints.erase(fx.footprints.begin(),
                      fx.footprints.begin() + tables);
  fx.target_rw = fx.analysis.front();
  return fx;
}

void BM_ReplayPlanPrefilter(benchmark::State& state) {
  const bool prefilter = state.range(0) != 0;
  static const PrefilterFixture& fx =
      *new PrefilterFixture(BuildPrefilterFixture(64, 4096));
  core::DependencyOptions options;
  if (prefilter) options.static_footprints = &fx.footprints;
  for (auto _ : state) {
    core::ReplayPlan plan = core::ComputeReplayPlan(
        fx.analysis, /*target_index=*/1, fx.target_rw,
        /*target_occupies_slot=*/true, options);
    benchmark::DoNotOptimize(plan.replay_indices.size());
  }
  state.SetItemsProcessed(state.iterations() * int64_t(fx.analysis.size()));
}
BENCHMARK(BM_ReplayPlanPrefilter)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// --- Predicate-region veto (DESIGN.md §15) ----------------------------------
// Replay-plan cost and size with and without the row-region veto
// (row_wise) on a range-keyed single-table history: every statement writes
// one 10-key window [10w, 10w+10), so the column rules (and classic RI
// values, which see only wildcards) replay every statement, while the
// veto proves all windows but the target's disjoint. The plan_size
// counter records what the veto buys; EXPERIMENTS.md tracks both rows.

struct PredicateBenchFixture {
  std::vector<core::QueryRW> analysis;
  core::QueryRW target_rw;
};

PredicateBenchFixture BuildPredicateBenchFixture(int64_t windows,
                                                 int64_t commits) {
  core::QueryAnalyzer analyzer;
  uint64_t index = 0;
  auto feed = [&](const std::string& text) {
    sql::LogEntry entry;
    entry.sql = text;
    entry.stmt = *sql::Parser::ParseStatement(text);
    entry.index = ++index;
    return entry;
  };
  (void)analyzer.AnalyzeEntry(
      feed("CREATE TABLE t (id INT PRIMARY KEY, v INT)"));
  PredicateBenchFixture fx;
  for (int64_t i = 0; i < commits; ++i) {
    int64_t lo = (i % windows) * 10;
    auto rw = analyzer.AnalyzeEntry(
        feed("UPDATE t SET v = " + std::to_string(i) + " WHERE id >= " +
             std::to_string(lo) + " AND id < " + std::to_string(lo + 10)));
    if (rw.ok()) {
      analyzer.CanonicalizeRowSets(&*rw);
      fx.analysis.push_back(*rw);
    }
  }
  fx.target_rw = fx.analysis.front();
  return fx;
}

void BM_PredicatePrefilter(benchmark::State& state) {
  const bool tier_on = state.range(0) != 0;
  static const PredicateBenchFixture& fx =
      *new PredicateBenchFixture(BuildPredicateBenchFixture(256, 4096));
  core::DependencyOptions options;
  options.row_wise = tier_on;
  size_t plan_size = 0;
  for (auto _ : state) {
    core::ReplayPlan plan = core::ComputeReplayPlan(
        fx.analysis, /*target_index=*/1, fx.target_rw,
        /*target_occupies_slot=*/true, options);
    plan_size = plan.replay_indices.size();
    benchmark::DoNotOptimize(plan_size);
  }
  state.counters["plan_size"] = double(plan_size);
  state.SetItemsProcessed(state.iterations() * int64_t(fx.analysis.size()));
}
BENCHMARK(BM_PredicatePrefilter)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Plan-size comparison on the bundled equality-keyed workload histories
// (TATP: subscriber-keyed point writes; Epinions: user/item-keyed): how
// many of the raw history's commits survive into the replay plan with the
// row-region veto off (Arg 1 = 0, column-only) vs on (Arg 1 = 1, T+D). The
// planner is one column-closure pass either way: it has no row power
// without the veto. Time measures plan computation only; plan_size is the
// headline number.
void BM_PredicatePlanSizeWorkload(benchmark::State& state) {
  static const char* kNames[] = {"tatp", "epinions"};
  const char* name = kNames[state.range(0)];
  const bool tier_on = state.range(1) != 0;
  struct WorkloadFixture {
    PredicateBenchFixture fx;
    uint64_t target_index = 1;
  };
  static std::map<std::string, WorkloadFixture>& cache =
      *new std::map<std::string, WorkloadFixture>();
  if (!cache.count(name)) {
    workload::RawHistory h = workload::MakeRawHistory(name, 512, 0.5, 11);
    core::QueryAnalyzer analyzer;
    uint64_t index = 0;
    WorkloadFixture wf;
    uint64_t target_pos = 0;
    for (const auto& ddl : h.schema_sql) {
      sql::LogEntry entry;
      entry.sql = ddl;
      entry.stmt = *sql::Parser::ParseStatement(ddl);
      entry.index = ++index;
      (void)analyzer.AnalyzeEntry(entry);
    }
    for (size_t i = 0; i < h.queries.size(); ++i) {
      sql::LogEntry entry;
      entry.sql = h.queries[i];
      entry.stmt = *sql::Parser::ParseStatement(h.queries[i]);
      entry.index = ++index;
      auto rw = analyzer.AnalyzeEntry(entry);
      if (rw.ok()) {
        analyzer.CanonicalizeRowSets(&*rw);
        wf.fx.analysis.push_back(*rw);
        if (i + 1 == h.retro_index) target_pos = wf.fx.analysis.size();
      }
    }
    wf.target_index = target_pos ? target_pos : 1;
    wf.fx.target_rw = wf.fx.analysis[wf.target_index - 1];
    cache[name] = std::move(wf);
  }
  const PredicateBenchFixture& fx = cache[name].fx;
  const uint64_t target_index = cache[name].target_index;
  core::DependencyOptions options;
  options.row_wise = tier_on;
  size_t plan_size = 0;
  for (auto _ : state) {
    core::ReplayPlan plan = core::ComputeReplayPlan(
        fx.analysis, target_index, fx.target_rw,
        /*target_occupies_slot=*/true, options);
    plan_size = plan.replay_indices.size();
    benchmark::DoNotOptimize(plan_size);
  }
  state.counters["plan_size"] = double(plan_size);
  state.SetLabel(name);
}
BENCHMARK(BM_PredicatePlanSizeWorkload)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

// --- fault injection + durable WAL (DESIGN.md §11) -------------------------

void BM_FailpointDisabled(benchmark::State& state) {
  // The contract of UV_FAILPOINT while nothing is armed: one relaxed
  // atomic load, no registry lookup, no lock.
  fault::FailpointRegistry::Global().DisarmAll();
  for (auto _ : state) {
    Status st = UV_FAILPOINT_EVAL("bench.fp.disabled");
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointDisabled);

void BM_FailpointArmedElsewhere(benchmark::State& state) {
  // Gate open (some other site armed): this site pays the registry lookup
  // — the cost every site bears while any fault is being injected.
  fault::FailpointConfig config;
  config.probability = 0.0;  // never actually fires
  fault::FailpointRegistry::Global().Arm("bench.fp.other", config);
  for (auto _ : state) {
    Status st = UV_FAILPOINT_EVAL("bench.fp.bystander");
    benchmark::DoNotOptimize(st.ok());
  }
  fault::FailpointRegistry::Global().DisarmAll();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointArmedElsewhere);

void BM_WalAppend(benchmark::State& state) {
  // Arg = fsync_every_n: 1 = fsync per append (safest), 64 = group
  // commit, 0 = buffer only (sync deferred to the commit point).
  const uint64_t every_n = uint64_t(state.range(0));
  sql::LogEntry entry;
  entry.index = 1;
  entry.sql = "INSERT INTO accounts (owner, balance) VALUES ('alice', 100)";
  entry.stmt = *sql::Parser::ParseStatement(entry.sql);
  std::string path =
      (std::filesystem::temp_directory_path() / "uv_bench_wal.tmp").string();
  std::filesystem::remove(path);
  sql::WalOptions options;
  options.fsync_every_n = every_n;
  auto opened = sql::Wal::Open(path, options);
  auto wal = std::move(*opened);
  for (auto _ : state) {
    Status st = wal->AppendEntry(entry);
    benchmark::DoNotOptimize(st.ok());
  }
  (void)wal->Sync();
  wal.reset();
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(sql::EncodeLogEntry(entry).size()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalAppend)->Arg(1)->Arg(64)->Arg(0);

void BM_WalRecover(benchmark::State& state) {
  // Recovery scan+truncate cost over Arg committed entries.
  const int entries = int(state.range(0));
  sql::LogEntry entry;
  entry.index = 1;
  entry.sql = "INSERT INTO accounts (owner, balance) VALUES ('alice', 100)";
  entry.stmt = *sql::Parser::ParseStatement(entry.sql);
  std::string path =
      (std::filesystem::temp_directory_path() / "uv_bench_walrec.tmp")
          .string();
  std::filesystem::remove(path);
  {
    sql::WalOptions options;
    options.fsync_every_n = 0;
    auto opened = sql::Wal::Open(path, options);
    auto wal = std::move(*opened);
    for (int i = 0; i < entries; ++i) (void)wal->AppendEntry(entry);
    (void)wal->Sync();
  }
  for (auto _ : state) {
    sql::QueryLog log;
    auto r = log.Recover(path);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * entries);
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalRecover)->Arg(100)->Arg(1000);

// MVCC snapshot acquisition (DESIGN.md §14) over a history of range(1)
// committed entries on a 64-row table. range(0) = 0: the epoch is
// unchanged, so SnapshotHistory() returns the cached shared_ptr — the
// per-analysis overhead every concurrent what-if pays. range(0) = 1: a
// commit lands between acquisitions, so every iteration builds a snapshot
// that extends the previous one. Its `lock_us` counter (mean time a build
// holds the exclusive commit lock, uv.whatif.snapshot.lock_us) is the
// writer stall and stays O(delta); the wall time still includes the
// O(history) off-lock copy of the analysis vectors. A fixed iteration
// count bounds how far the committing variant grows the history.
void BM_SnapshotAcquire(benchmark::State& state) {
  const bool advance = state.range(0) != 0;
  const int64_t history = state.range(1);
  core::Ultraverse uv;
  if (!uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (int64_t i = 1; i < history; ++i) {
    const std::string id = std::to_string(1 + (i - 1) % 64);
    if (!uv.ExecuteSql(i <= 64 ? "INSERT INTO t (id, v) VALUES (" + id + ", 0)"
                               : "UPDATE t SET v = v + 1 WHERE id = " + id)
             .ok()) {
      state.SkipWithError("setup failed");
      return;
    }
  }
  if (!uv.SnapshotHistory().ok()) {
    state.SkipWithError("snapshot failed");
    return;
  }
  obs::Histogram* const lock_us =
      obs::Registry::Global().histogram("uv.whatif.snapshot.lock_us");
  obs::SetTiming(true);
  const obs::HistogramSnapshot before = lock_us->Snapshot("lock_us");
  int k = 0;
  for (auto _ : state) {
    if (advance) {
      state.PauseTiming();
      if (!uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = " +
                         std::to_string(1 + (k++ % 64)))
               .ok()) {
        state.SkipWithError("commit failed");
        break;
      }
      state.ResumeTiming();
    }
    auto snap = uv.SnapshotHistory();
    if (!snap.ok()) {
      state.SkipWithError("snapshot failed");
      break;
    }
    benchmark::DoNotOptimize((*snap)->epoch);
  }
  obs::SetTiming(false);
  const obs::HistogramSnapshot after = lock_us->Snapshot("lock_us");
  const uint64_t builds = after.count - before.count;
  state.counters["lock_us"] =
      builds ? double(after.sum_us - before.sum_us) / double(builds) : 0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotAcquire)
    ->ArgsProduct({{0, 1}, {64, 4096}})
    ->Iterations(256);

// What-if result-cache hit latency (DESIGN.md §14): the steady-state cost
// of re-asking an already-answered question at an unchanged epoch — a map
// probe plus one WhatIfAnalysis copy, no replay.
void BM_WhatIfResultCacheHit(benchmark::State& state) {
  core::Ultraverse uv;
  if (!uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (int i = 0; i < 32; ++i) {
    if (!uv.ExecuteSql(i == 0 ? "INSERT INTO t (id, v) VALUES (1, 0)"
                              : "UPDATE t SET v = v + 1 WHERE id = 1")
             .ok()) {
      state.SkipWithError("setup failed");
      return;
    }
  }
  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kRemove;
  op.index = 3;
  // Prime the cache; every timed iteration is a hit.
  if (!uv.WhatIfAnalyze(op, core::SystemMode::kTD).ok()) {
    state.SkipWithError("prime failed");
    return;
  }
  for (auto _ : state) {
    auto r = uv.WhatIfAnalyze(op, core::SystemMode::kTD);
    if (!r.ok() || !r->cache_hit) {
      state.SkipWithError("expected a cache hit");
      break;
    }
    benchmark::DoNotOptimize(r->fingerprint.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfResultCacheHit);

// Commit-time overhead of incremental analysis maintenance (DESIGN.md
// §14): eager per-commit R/W analysis + footprint upkeep (Arg 1) vs plain
// logging (Arg 0). The delta is what Table 7(c)'s asynchronous logger
// costs each committed statement under the incremental canonicalization
// scheme (full re-canonicalization only when the analyzer's RI merge
// generation advances).
void BM_IncrementalAnalysisCommit(benchmark::State& state) {
  const bool eager = state.range(0) != 0;
  core::Ultraverse::Options opts;
  opts.eager_analysis = eager;
  core::Ultraverse uv(opts);
  if (!uv.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok() ||
      !uv.ExecuteSql("INSERT INTO t (id, v) VALUES (1, 0)").ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto r = uv.ExecuteSql("UPDATE t SET v = v + 1 WHERE id = 1");
    if (!r.ok()) {
      state.SkipWithError("commit failed");
      break;
    }
    benchmark::DoNotOptimize(r->affected);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalAnalysisCommit)->Arg(0)->Arg(1);

// --- compiled execution (DESIGN.md §12) -------------------------------------

void BM_VmCompile(benchmark::State& state) {
  sql::Database db;
  (void)db.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)", 1);
  auto stmt = *sql::Parser::ParseStatement(
      "UPDATE t SET a = a + b * 2 WHERE id = 42 AND b IN (1, 2, 3)");
  for (auto _ : state) {
    auto plan = sql::vm::Compile(db, *stmt);
    benchmark::DoNotOptimize(plan.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VmCompile);

// The hot path replay pays per re-executed statement once its plan is
// cached: fingerprint + (fingerprint, schema version) lookup.
void BM_PlanCacheHit(benchmark::State& state) {
  sql::Database db;
  (void)db.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)", 1);
  auto stmt = *sql::Parser::ParseStatement("UPDATE t SET v = 1 WHERE id = 7");
  auto plan = sql::vm::Compile(db, *stmt);
  sql::vm::PlanCache cache;
  cache.Insert(sql::vm::FingerprintStatement(*stmt), 1, plan);
  for (auto _ : state) {
    uint64_t fp = sql::vm::FingerprintStatement(*stmt);
    auto hit = cache.Lookup(fp, 1);
    benchmark::DoNotOptimize(hit.has_value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanCacheHit);

// Batch evaluation over row chunks vs the AST walker, on a scan-shaped
// aggregate (no index shortcut): Arg0 = table rows, Arg1 = 0 tree / 1 vm.
void BM_VmExecBatch(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const bool use_vm = state.range(1) != 0;
  sql::Database db;
  db.set_exec_engine(use_vm ? sql::ExecEngine::kVm : sql::ExecEngine::kTree);
  uint64_t commit = 0;
  (void)db.ExecuteSql("CREATE TABLE t (id INT PRIMARY KEY, v INT)", ++commit);
  sql::Table* table = db.FindTable("t");
  for (int64_t i = 0; i < rows; ++i) {
    (void)table->Insert({sql::Value::Int(i), sql::Value::Int(i % 97)},
                        ++commit);
  }
  db.TrimJournalsBefore(commit + 1);
  auto stmt = *sql::Parser::ParseStatement(
      "SELECT COUNT(*), SUM(v) FROM t WHERE v < 50");
  for (auto _ : state) {
    sql::ExecContext ctx;
    auto r = db.Execute(*stmt, ++commit, &ctx);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_VmExecBatch)
    ->ArgsProduct({{1000, 100000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT a.x, SUM(b.y) FROM a JOIN b ON a.id = b.aid WHERE a.x > 10 "
      "AND b.z IN (1, 2, 3) GROUP BY a.x ORDER BY a.x DESC LIMIT 5";
  for (auto _ : state) {
    auto r = sql::Parser::ParseStatement(sql);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

}  // namespace
}  // namespace ultraverse

// Custom main: strip the shared bench flags (--trace-out=...) before
// google-benchmark sees argv, so both flag families coexist.
int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::BenchSession session("micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
