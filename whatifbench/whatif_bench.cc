// Zero-RTT what-if benchmark (see README.md in this directory).
//
//   whatif_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   whatif_bench --workload <name> --seed <n> --counts
//
// Drives the engine only through its public entry points (workload::Driver,
// Ultraverse::{SnapshotHistory, EnsureAnalysis, WhatIfAnalyzeAt,
// RunTransaction}, core::ComputeReplayPlan, core::BuildConflictDag,
// core::FingerprintDatabase) and the ReplayStats / WhatIfReport they
// return. Every timing is engine wall time at rtt_micros = 0. Each selective
// what-if is checked against full-naive re-execution on the same snapshot
// and op; a mismatch counts as a failed operation and fails the run.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. --trace 0 reports the
// end-to-end metrics. --trace 1 reports the per-layer ones: every other
// what-if of its window runs with obs::Tracer on, and layer self times come
// from the spans the benchmark opens around each public call. --counts
// prints the plan/DAG/staging counts of one what-if, for the exact-repeat
// test.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dep_graph.h"
#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/workload.h"

namespace ultraverse::whatifbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  const char* base;        // workload::MakeWorkload name
  double dependency_rate;  // share of history txns touching the hot entity
  size_t history_txns;     // committed before the first snapshot
  int replay_threads;      // engine replay pool
  double writer_rate;      // open-loop commits/s; 0 = pinned snapshot only
};

constexpr WorkloadSpec kWorkloads[] = {
    {"epinions-prune", "epinions", 0.3, 1500, 4, 0},
    {"tpcc-chain", "tpcc", 1.0, 1500, 4, 0},
    // Writer + analyst + a pool of 2: at most four threads run at once.
    {"tatp-mixed", "tatp", 0.3, 4000, 2, 50},
};

/// Set-ups per run. Each builds a history from its own seed derived from
/// the run's seed and is measured for 1/kSetups of the window. What-if cost
/// differs by up to ~1.7x between histories (plan size varies by ~10% and
/// stage/replay cost grows faster than it), so a run pools several;
/// setup_s is the median set-up time. Each set-up's history commits fall
/// into one host speed level, so more set-ups also steady commit_ms on the
/// pinned workloads.
constexpr int kSetups = 10;
/// Selective what-ifs run after each set-up, before any timing, so the plan
/// cache, advisory indexes and lazy fault-in settle. Counted in setup_s.
constexpr int kWarmups = 2;
/// Traced run: repetitions of the planner / DAG / fingerprint probes.
constexpr int kProbes = 5;
/// tatp-mixed: the writer spins this long before each due time.
constexpr std::chrono::milliseconds kWriterSpin(1);

// ---------------------------------------------------------------------------
// Small helpers

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "whatif_bench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

uint64_t CounterValue(const obs::Snapshot& s, std::string_view name) {
  const obs::CounterSnapshot* c = s.FindCounter(name);
  return c ? c->value : 0;
}

uint64_t HistogramSum(const obs::Snapshot& s, std::string_view name) {
  const obs::HistogramSnapshot* h = s.FindHistogram(name);
  return h ? h->sum_us : 0;
}

/// Bench-owned span. Each carries the id of the operation it belongs to, so
/// the spans of one what-if (or one set-up) group together in the trace.
class Span {
 public:
  Span(const char* name, uint64_t id) : span_(name, {{"op_id", id}}) {}

 private:
  obs::TraceSpan span_;
};

void SetTracing(bool on) {
  if (on) {
    obs::Tracer::Global().Enable();
  } else {
    obs::Tracer::Global().Disable();
  }
}

// ---------------------------------------------------------------------------
// Results

class Report {
 public:
  /// `json` false: printed in the table only, not in the result line.
  void Set(const std::string& name, double value, const char* unit,
           size_t samples, bool json = true) {
    if (!metrics_.count(name)) order_.push_back(name);
    metrics_[name] = Metric{value, unit, samples, json};
  }

  /// The human table (with sample counts), then the one-line JSON result.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("%-34s %14s  %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const auto& name : order_) {
      const Metric& m = metrics_.at(name);
      std::printf("%-34s %14.4f  %-6s %8zu\n", name.c_str(), m.value, m.unit,
                  m.samples);
    }
    std::printf("%-34s %14.4f  %-6s %8llu\n", "error_rate",
                attempted ? double(failed) / double(attempted) : 0.0, "ratio",
                (unsigned long long)attempted);
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    const char* sep = "";
    for (const auto& name : order_) {
      const Metric& m = metrics_.at(name);
      if (!m.json) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", m.value);
      json += std::string(sep) + "\"" + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
      sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value = 0;
    const char* unit = "";
    size_t samples = 0;
    bool json = true;
  };
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

/// Everything measured about one selective what-if.
struct WhatIfSample {
  uint64_t id = 0;
  bool traced = false;
  double wall_ms = 0;
  double cpu_ms = 0;
  double plan_phase_ms = 0, stage_ms = 0, replay_ms = 0, publish_ms = 0;
  size_t replayed = 0, planned = 0, suffix = 0, critical_path = 0;
  uint64_t tables_staged = 0, pages_faulted = 0, staged_bytes = 0;
  uint64_t cache_hits = 0, cache_misses = 0, index_path = 0, scan_path = 0;
  uint64_t advisory_built = 0;
  uint64_t busy_us = 0, backoffs = 0;
  int workers = 1;

  double PhasesMs() const {
    return plan_phase_ms + stage_ms + replay_ms + publish_ms;
  }
};

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errored operations
  uint64_t mismatched = 0;  // fingerprint differs from full-naive

  bool ok() const { return failed == 0 && mismatched == 0; }
};

// ---------------------------------------------------------------------------
// One populated instance

struct Instance {
  std::unique_ptr<core::Ultraverse> uv;
  std::unique_ptr<workload::Driver> driver;
  std::shared_ptr<const core::HistorySnapshot> snap;
  core::RetroOp op;
  std::string naive_fingerprint;  // full-naive on `snap`
  uint64_t setup_id = 0;
  double setup_s = 0;
};

uint64_t g_next_id = 1;

/// Seed of a run's k-th set-up: distinct for every (seed, k) pair.
uint64_t DerivedSeed(uint64_t seed, int k) { return seed * kSetups + k; }

/// Runs one selective analyze-only what-if on `snap` and fills the sample
/// from the returned stats and report (public result fields only).
/// `before` is the metrics registry as collected just before the timer
/// started, for the worker counters' deltas.
Result<core::WhatIfAnalysis> TimedAnalyze(core::Ultraverse* uv,
                                          const core::HistorySnapshot& snap,
                                          const core::RetroOp& op,
                                          const obs::Snapshot& before,
                                          WhatIfSample* s) {
  Result<core::WhatIfAnalysis> r = [&] {
    Span span("bench.analyze", s->id);
    return uv->WhatIfAnalyzeAt(snap, op, core::SystemMode::kTD);
  }();
  if (!r.ok()) return r;
  const core::ReplayStats& st = r->stats;
  const obs::WhatIfReport& rep = st.report;
  for (const auto& p : rep.phases) {
    double ms = double(p.wall_us) / 1e3;
    if (p.name == "plan") {
      s->plan_phase_ms += ms;
    } else if (p.name == "stage") {
      s->stage_ms += ms;
    } else if (p.name == "replay") {
      s->replay_ms += ms;
    } else {
      s->publish_ms += ms;
    }
  }
  s->replayed = st.replayed;
  s->planned = st.planned_replay;
  s->suffix = st.suffix_size;
  s->critical_path = st.critical_path;
  s->workers = st.workers;
  s->tables_staged = rep.tables_staged;
  s->pages_faulted = rep.pages_faulted;
  s->staged_bytes = rep.staged_bytes;
  s->cache_hits = rep.plan_cache_hits;
  s->cache_misses = rep.plan_cache_misses;
  s->index_path = rep.vm_index_path;
  s->scan_path = rep.vm_scan_path;
  s->advisory_built = rep.vm_advisory_built;
  s->busy_us = HistogramSum(st.obs, "uv.replay.worker.busy_us") -
               HistogramSum(before, "uv.replay.worker.busy_us");
  s->backoffs = CounterValue(st.obs, "uv.replay.worker.backoffs") -
                CounterValue(before, "uv.replay.worker.backoffs");
  return r;
}

/// Full-naive reference on the same snapshot and op; returns its wall ms.
Result<double> TimedNaive(core::Ultraverse* uv,
                          const core::HistorySnapshot& snap,
                          const core::RetroOp& op, std::string* fingerprint) {
  Span span("bench.naive", g_next_id++);
  auto t0 = Clock::now();
  Result<core::WhatIfAnalysis> r = uv->WhatIfAnalyzeAt(
      snap, op, core::SystemMode::kTD, /*full_naive=*/true);
  double ms = MsSince(t0);
  if (!r.ok()) return r.status();
  *fingerprint = r->fingerprint;
  return ms;
}

/// Driver set-up, history commit, analysis catch-up, first snapshot and
/// warm-up what-ifs: everything before the timed window. Appends each
/// history commit's latency to `commit_ms`.
Instance BuildInstance(const WorkloadSpec& spec, uint64_t seed,
                       std::vector<double>* commit_ms) {
  auto t0 = Clock::now();
  Instance inst;
  inst.setup_id = g_next_id++;
  const uint64_t id = inst.setup_id;
  Span root("bench.setup", id);
  core::Ultraverse::Options opts;
  opts.rtt_micros = 0;
  opts.replay_threads = spec.replay_threads;
  opts.hash_jumper = false;
  opts.rng_seed = seed;
  inst.uv = std::make_unique<core::Ultraverse>(opts);
  workload::Driver::Config config;
  config.dependency_rate = spec.dependency_rate;
  config.seed = seed;
  inst.driver = std::make_unique<workload::Driver>(
      workload::MakeWorkload(spec.base, 1), inst.uv.get(), config);
  {
    Span span("bench.populate", id);
    Status st = inst.driver->Setup();
    if (!st.ok()) Die("driver setup", st);
  }
  for (size_t i = 0; i < spec.history_txns; ++i) {
    auto c0 = Clock::now();
    Status st = [&] {
      Span span("bench.commit", id);
      return inst.driver->RunHistory(1);
    }();
    if (!st.ok()) Die("history commit", st);
    commit_ms->push_back(MsSince(c0));
  }
  {
    Span span("bench.catchup", id);
    auto r = inst.uv->EnsureAnalysis();
    if (!r.ok()) Die("analysis catch-up", r.status());
  }
  {
    Span span("bench.snapshot", id);
    auto r = inst.uv->SnapshotHistory();
    if (!r.ok()) Die("snapshot", r.status());
    inst.snap = *r;
  }
  inst.op.kind = core::RetroOp::Kind::kRemove;
  inst.op.index = inst.driver->retro_target_index();
  {
    Span span("bench.warmup", id);
    auto naive = inst.uv->WhatIfAnalyzeAt(*inst.snap, inst.op,
                                          core::SystemMode::kTD, true);
    if (!naive.ok()) Die("warm-up full-naive", naive.status());
    inst.naive_fingerprint = naive->fingerprint;
    for (int i = 0; i < kWarmups; ++i) {
      auto r = inst.uv->WhatIfAnalyzeAt(*inst.snap, inst.op,
                                        core::SystemMode::kTD);
      if (!r.ok()) Die("warm-up what-if", r.status());
      if (r->fingerprint != inst.naive_fingerprint) {
        Die("warm-up what-if", Status::Internal("disagrees with full-naive"));
      }
    }
  }
  inst.setup_s = MsSince(t0) / 1e3;
  return inst;
}

// ---------------------------------------------------------------------------
// Trace harvesting: self time of the benchmark's own spans

struct SpanTimes {
  std::map<std::string, std::map<uint64_t, double>> self_ms;  // name->id->ms
  uint64_t spans = 0;
  uint64_t dropped = 0;

  /// Self time of `name` within operation `id`; nullopt if it has none.
  std::optional<double> Of(const std::string& name, uint64_t id) const {
    auto it = self_ms.find(name);
    if (it == self_ms.end()) return std::nullopt;
    auto jt = it->second.find(id);
    if (jt == it->second.end()) return std::nullopt;
    return jt->second;
  }

  std::vector<double> All(const std::string& name) const {
    std::vector<double> v;
    if (auto it = self_ms.find(name); it != self_ms.end()) {
      for (const auto& [id, ms] : it->second) v.push_back(ms);
    }
    return v;
  }
};

/// Reads the tracer's Chrome JSON (B/E pairs, properly nested per thread),
/// keeps the spans named "bench.*", and adds each one's self time — its
/// duration minus the bench spans nested directly inside it — to `out`,
/// keyed by span name and op_id. Engine-internal spans stay in the dump
/// for viewers but are not attributed here. Clears the tracer afterwards;
/// call only while no other thread records spans.
void HarvestTrace(SpanTimes* out) {
  obs::Tracer& tracer = obs::Tracer::Global();
  out->dropped += tracer.dropped_spans();
  const std::string json = tracer.DumpJson();
  tracer.Clear();
  struct Open {
    std::string name;
    uint64_t id;
    double ts_ms;
    double child_ms;
  };
  std::map<long, std::vector<Open>> stacks;  // tid -> open bench spans
  // Numeric field `key` of the event spanning [from, limit).
  auto field = [&](size_t from, std::string_view key, size_t limit) {
    size_t k = json.find(key, from);
    if (k == std::string::npos || k >= limit) return 0.0;
    return std::strtod(json.c_str() + k + key.size(), nullptr);
  };
  // String values are escaped, so an unescaped event prefix only ever
  // starts an event.
  const std::string_view kEvent = "{\"name\":\"";
  for (size_t pos = json.find(kEvent); pos != std::string::npos;) {
    size_t next = json.find(kEvent, pos + 1);
    size_t limit = next == std::string::npos ? json.size() : next;
    size_t begin = pos + kEvent.size();
    pos = next;
    std::string name = json.substr(begin, json.find('"', begin) - begin);
    if (name.rfind("bench.", 0) != 0) continue;
    size_t ph = json.find("\"ph\":\"", begin);
    if (ph == std::string::npos || ph >= limit) continue;
    double ts_ms = field(begin, "\"ts\":", limit) / 1e3;
    std::vector<Open>& stack = stacks[long(field(begin, "\"tid\":", limit))];
    if (json[ph + 6] == 'B') {
      stack.push_back(
          Open{name, uint64_t(field(begin, "\"op_id\":", limit)), ts_ms, 0});
    } else if (!stack.empty()) {
      Open done = stack.back();
      stack.pop_back();
      double dur = ts_ms - done.ts_ms;
      out->self_ms[done.name][done.id] += dur - done.child_ms;
      ++out->spans;
      if (!stack.empty()) stack.back().child_ms += dur;
    }
  }
}

// ---------------------------------------------------------------------------
// Timed windows

struct Window {
  std::vector<WhatIfSample> whatifs;
  std::vector<double> naive_ms;
  std::vector<double> commit_ms;          // tatp-mixed: from the due time
  std::vector<double> commit_service_us;  // tatp-mixed: RunTransaction only
  std::vector<double> lag_ms;             // generator lateness
  size_t snapshot_builds = 0;
  std::shared_ptr<const core::HistorySnapshot> last_snap;
};

/// Counts one what-if and checks it against full-naive's fingerprint.
bool Check(const Result<core::WhatIfAnalysis>& r, const std::string& expected,
           Totals* totals) {
  ++totals->attempted;
  if (!r.ok()) {
    ++totals->failed;
    std::fprintf(stderr, "what-if failed: %s\n",
                 r.status().ToString().c_str());
    return false;
  }
  if (r->fingerprint != expected) {
    ++totals->mismatched;
    std::fprintf(stderr, "what-if at epoch %llu disagrees with full-naive\n",
                 (unsigned long long)r->epoch);
    return false;
  }
  return true;
}

/// Times one full-naive run on `snap` and counts it as an operation: it
/// fails unless its fingerprint equals `expected`, the selective universe
/// of the same snapshot and op.
void CheckedNaive(core::Ultraverse* uv, const core::HistorySnapshot& snap,
                  const core::RetroOp& op, const std::string& expected,
                  Totals* totals, Window* w) {
  std::string fp;
  Result<double> ms = TimedNaive(uv, snap, op, &fp);
  ++totals->attempted;
  if (!ms.ok()) {
    ++totals->failed;
    std::fprintf(stderr, "full-naive failed: %s\n",
                 ms.status().ToString().c_str());
  } else if (fp != expected) {
    ++totals->mismatched;
    std::fprintf(stderr, "what-if at epoch %llu disagrees with full-naive\n",
                 (unsigned long long)snap.epoch);
  } else {
    w->naive_ms.push_back(*ms);
  }
}

/// epinions-prune / tpcc-chain: a closed loop of analyze-only removes on
/// the pinned set-up snapshot, each followed by a timed full-naive run.
/// With `trace`, every other what-if runs traced.
void RunPinned(Instance* inst, double seconds, bool trace, Totals* totals,
               Window* w) {
  auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  auto prev_end = Clock::now();
  for (int i = 1; Clock::now() < deadline; ++i) {
    WhatIfSample s;
    s.id = g_next_id++;
    s.traced = trace && i % 2 == 0;
    SetTracing(s.traced);
    const obs::Snapshot before = obs::Registry::Global().Collect();
    auto t0 = Clock::now();
    // Closed loop: the next what-if is due when the previous op ended.
    w->lag_ms.push_back(
        std::chrono::duration<double, std::milli>(t0 - prev_end).count());
    double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    Result<core::WhatIfAnalysis> r = [&] {
      Span root("bench.whatif", s.id);
      return TimedAnalyze(inst->uv.get(), *inst->snap, inst->op, before, &s);
    }();
    s.wall_ms = MsSince(t0);
    s.cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    if (Check(r, inst->naive_fingerprint, totals)) w->whatifs.push_back(s);
    CheckedNaive(inst->uv.get(), *inst->snap, inst->op,
                 inst->naive_fingerprint, totals, w);
    SetTracing(false);
    prev_end = Clock::now();
  }
  w->last_snap = inst->snap;
}

/// tatp-mixed: an open-loop writer commits at spec.writer_rate while this
/// thread runs a closed-loop analyst at the live epoch (analysis catch-up,
/// snapshot, analyze-only remove). After each what-if the analyst runs
/// full-naive on the same snapshot, which times the reference and checks
/// the selective universe against it.
void RunMixed(const WorkloadSpec& spec, Instance* inst, double seconds,
              bool trace, Totals* totals, Window* w) {
  std::atomic<bool> stop{false};
  std::atomic<double> writer_cpu_ms{0};
  uint64_t writer_attempted = 0, writer_failed = 0;
  std::thread writer([&] {
    const std::chrono::duration<double> period(1.0 / spec.writer_rate);
    const auto start = Clock::now();
    for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   period * double(k));
      if (Clock::now() < due) {
        // Idle writer: any lateness past `due` is the generator's own.
        // Sleep to just short of the due time, then spin: waking a halted
        // vCPU can take milliseconds, which would read as commit latency.
        std::this_thread::sleep_until(due - kWriterSpin);
        while (Clock::now() < due) {
        }
        w->lag_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count());
      }
      auto t0 = Clock::now();
      Status st = [&] {
        Span span("bench.commit", inst->setup_id << 32 | k);
        return inst->driver->RunHistory(1);
      }();
      auto t1 = Clock::now();
      ++writer_attempted;
      if (!st.ok()) {
        ++writer_failed;
        std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
      } else {
        // Timed from the due time: a stall also delays the commits queued
        // behind it.
        w->commit_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - due).count());
        w->commit_service_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      writer_cpu_ms.store(CpuMs(CLOCK_THREAD_CPUTIME_ID),
                          std::memory_order_relaxed);
    }
  });

  uint64_t last_epoch = inst->snap->epoch;
  auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (int i = 1; Clock::now() < deadline; ++i) {
    WhatIfSample s;
    s.id = g_next_id++;
    s.traced = trace && i % 2 == 0;
    SetTracing(s.traced);
    const obs::Snapshot before = obs::Registry::Global().Collect();
    auto t0 = Clock::now();
    double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
    double writer_cpu0 = writer_cpu_ms.load(std::memory_order_relaxed);
    std::shared_ptr<const core::HistorySnapshot> snap;
    Result<core::WhatIfAnalysis> r = [&]() -> Result<core::WhatIfAnalysis> {
      Span root("bench.whatif", s.id);
      {
        Span span("bench.catchup", s.id);
        auto a = inst->uv->EnsureAnalysis();
        if (!a.ok()) return a.status();
      }
      {
        Span span("bench.snapshot", s.id);
        auto sn = inst->uv->SnapshotHistory();
        if (!sn.ok()) return sn.status();
        snap = *sn;
      }
      return TimedAnalyze(inst->uv.get(), *snap, inst->op, before, &s);
    }();
    s.wall_ms = MsSince(t0);
    // Process CPU minus what the writer thread burned meanwhile.
    s.cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0 -
               (writer_cpu_ms.load(std::memory_order_relaxed) - writer_cpu0);
    SetTracing(false);
    if (!r.ok()) {
      Check(r, "", totals);
      continue;
    }
    if (snap->epoch != last_epoch) ++w->snapshot_builds;
    last_epoch = snap->epoch;
    ++totals->attempted;
    w->whatifs.push_back(s);
    w->last_snap = snap;
    CheckedNaive(inst->uv.get(), *snap, inst->op, r->fingerprint, totals, w);
  }
  stop.store(true);
  writer.join();
  totals->attempted += writer_attempted;
  totals->failed += writer_failed;
}

// ---------------------------------------------------------------------------
// Probes: the planner, the conflict DAG and the fingerprint called directly

struct ProbeCounts {
  size_t plan_size = 0;  // replay set of the remove (target excluded)
  size_t dag_edges = 0;
  size_t critical_path = 0;
};

ProbeCounts RunProbes(const core::HistorySnapshot& snap,
                      const core::RetroOp& op, int reps) {
  ProbeCounts counts;
  const std::vector<core::QueryRW>& analysis = *snap.analysis;
  core::DependencyOptions deps;  // T+D: column- and row-wise
  deps.static_footprints = snap.footprints.get();
  deps.record_exclusions = true;  // as the engine does at kSummary
  for (int i = 0; i < reps; ++i) {
    const uint64_t id = g_next_id++;
    core::ReplayPlan plan = [&] {
      Span span("bench.plan", id);
      return core::ComputeReplayPlan(analysis, op.index,
                                     analysis[op.index - 1],
                                     /*target_occupies_slot=*/true, deps);
    }();
    std::vector<const core::QueryRW*> ordered;
    for (uint64_t idx : plan.replay_indices) {
      if (idx != op.index) ordered.push_back(&analysis[idx - 1]);
    }
    std::vector<std::vector<uint32_t>> preds = [&] {
      Span span("bench.dag", id);
      return core::BuildConflictDag(ordered);
    }();
    {
      Span span("bench.fingerprint", id);
      core::FingerprintDatabase(*snap.db);
    }
    counts = ProbeCounts{ordered.size(), 0, preds.empty() ? 0u : 1u};
    std::vector<size_t> depth(preds.size(), 1);
    for (size_t j = 0; j < preds.size(); ++j) {
      counts.dag_edges += preds[j].size();
      for (uint32_t p : preds[j]) depth[j] = std::max(depth[j], depth[p] + 1);
      counts.critical_path = std::max(counts.critical_path, depth[j]);
    }
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Reporting

template <typename F>
std::vector<double> Collect(const std::vector<WhatIfSample>& v, F f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& s : v) out.push_back(double(f(s)));
  return out;
}

double WallMs(const WhatIfSample& s) { return s.wall_ms; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void ReportEndToEnd(const std::vector<double>& setup_s, const Window& w,
                    const std::vector<double>& commit_ms, Report* out) {
  auto wall = Collect(w.whatifs, WallMs);
  auto cpu = Collect(w.whatifs, [](const WhatIfSample& s) { return s.cpu_ms; });
  out->Set("setup_s", Median(setup_s), "s", setup_s.size());
  // The medians are printed but not gated: on a host that alternates
  // between two speed levels for seconds at a time they fall between the
  // levels and follow the run's share of fast time. The p90s lie in the
  // slow level in every run that has any slow time (README.md, Noise).
  out->Set("whatif_ms_p50", Median(wall), "ms", wall.size(), false);
  out->Set("whatif_ms_p90", Quantile(wall, 0.9), "ms", wall.size());
  out->Set("whatif_cpu_ms_p50", Median(cpu), "ms", cpu.size(), false);
  out->Set("whatif_cpu_ms_p90", Quantile(cpu, 0.9), "ms", cpu.size());
  out->Set("naive_ms_p50", Median(w.naive_ms), "ms", w.naive_ms.size(),
           false);
  out->Set("naive_ms_p90", Quantile(w.naive_ms, 0.9), "ms",
           w.naive_ms.size());
  out->Set("commit_ms_p50", Median(commit_ms), "ms", commit_ms.size(),
           false);
  out->Set("commit_ms_p99", Quantile(commit_ms, 0.99), "ms", commit_ms.size());
  out->Set("peak_rss_mb", PeakRssMb(), "MB", 1);
}

/// Per-layer metrics of the traced run, from the what-ifs that ran with the
/// tracer on; the interleaved untraced ones are the overhead baseline. The
/// facade's catch-up and snapshot count per what-if on tatp-mixed and per
/// set-up on the pinned workloads, which catch up and snapshot only then.
void ReportPerLayer(bool mixed, const std::vector<uint64_t>& setup_ids,
                    const Window& w, const std::vector<double>& commit_us,
                    const ProbeCounts& probe, const SpanTimes& spans,
                    Report* out) {
  std::vector<WhatIfSample> traced, plain;
  for (const auto& s : w.whatifs) (s.traced ? traced : plain).push_back(s);
  auto med = [&](auto f) { return Median(Collect(traced, f)); };
  const size_t n = traced.size();

  std::vector<uint64_t> facade_ids = setup_ids;
  if (mixed) {
    facade_ids.clear();
    for (const auto& s : traced) facade_ids.push_back(s.id);
  }
  auto facade_self = [&](const char* name) {
    std::vector<double> v;
    for (uint64_t id : facade_ids) {
      if (auto ms = spans.Of(name, id)) v.push_back(*ms);
    }
    return std::pair(Median(v), v.size());
  };
  auto probe_self = [&](const char* name) {
    std::vector<double> v = spans.All(name);
    return std::pair(Median(v), v.size());
  };
  // Engine phases come from WhatIfReport::phases; the rest of a traced
  // what-if is the self time of the bench spans around the engine call
  // (the root and bench.analyze) minus those phases.
  std::vector<double> unattributed;
  for (const auto& s : traced) {
    double self = spans.Of("bench.whatif", s.id).value_or(0) +
                  spans.Of("bench.analyze", s.id).value_or(0);
    unattributed.push_back(self - s.PhasesMs());
  }
  const WhatIfSample& last = traced.back();
  auto [snapshot_ms, snapshot_n] = facade_self("bench.snapshot");
  auto [catchup_ms, catchup_n] = facade_self("bench.catchup");
  auto [fp_ms, fp_n] = probe_self("bench.fingerprint");
  auto [plan_ms, plan_n] = probe_self("bench.plan");
  auto [dag_ms, dag_n] = probe_self("bench.dag");
  const double traced_p50 = Median(Collect(traced, WallMs));
  const double plain_p50 = Median(Collect(plain, WallMs));
  const double plan_phase = med([](const WhatIfSample& s) {
    return s.plan_phase_ms;
  });
  const double stage = med([](const WhatIfSample& s) { return s.stage_ms; });
  const double replay = med([](const WhatIfSample& s) { return s.replay_ms; });
  const double publish = med([](const WhatIfSample& s) {
    return s.publish_ms;
  });

  out->Set("workload.generator_lag_ms_p99", Quantile(w.lag_ms, 0.99), "ms",
           w.lag_ms.size());
  out->Set("facade.snapshot_ms", snapshot_ms, "ms", snapshot_n);
  out->Set("facade.snapshot_builds",
           double(mixed ? w.snapshot_builds : setup_ids.size()), "count",
           mixed ? w.whatifs.size() : setup_ids.size());
  out->Set("facade.analysis_catchup_ms", catchup_ms, "ms", catchup_n);
  out->Set("facade.commit_us", Median(commit_us), "us", commit_us.size());
  out->Set("facade.fingerprint_ms", fp_ms, "ms", fp_n);
  out->Set("dep_graph.plan_ms", plan_ms, "ms", plan_n);
  out->Set("dep_graph.plan_size", double(last.planned), "count", 1);
  out->Set("dep_graph.suffix_size", double(last.suffix), "count", 1);
  out->Set("dep_graph.prune_ratio",
           last.suffix ? double(last.planned) / double(last.suffix) : 0,
           "ratio", 1);
  out->Set("dep_graph.dag_ms", dag_ms, "ms", dag_n);
  out->Set("dep_graph.dag_edges", double(probe.dag_edges), "count", 1);
  out->Set("dep_graph.critical_path", double(last.critical_path), "count", 1);
  out->Set("dep_graph.dag_width",
           last.critical_path
               ? double(last.planned) / double(last.critical_path)
               : 0,
           "ratio", 1);
  out->Set("replay.plan_phase_ms", plan_phase, "ms", n);
  out->Set("replay.stage_ms", stage, "ms", n);
  out->Set("replay.replay_ms", replay, "ms", n);
  out->Set("replay.slot_us", med([](const WhatIfSample& s) {
             return s.replayed ? s.replay_ms * 1e3 / double(s.replayed) : 0;
           }),
           "us", n);
  out->Set("replay.unattributed_ms", Median(unattributed), "ms", n);
  out->Set("replay.worker_busy_ratio", med([](const WhatIfSample& s) {
             double capacity = s.replay_ms * 1e3 * double(s.workers);
             return capacity > 0 ? double(s.busy_us) / capacity : 0;
           }),
           "ratio", n);
  out->Set("replay.backoffs",
           med([](const WhatIfSample& s) { return s.backoffs; }), "count", n);
  out->Set("staging.tables_staged",
           med([](const WhatIfSample& s) { return s.tables_staged; }), "count",
           n);
  out->Set("staging.pages_faulted",
           med([](const WhatIfSample& s) { return s.pages_faulted; }), "count",
           n);
  out->Set("staging.staged_kb", med([](const WhatIfSample& s) {
             return double(s.staged_bytes) / 1024.0;
           }),
           "KiB", n);
  out->Set("sqldb.plan_cache_hit_ratio", med([](const WhatIfSample& s) {
             uint64_t all = s.cache_hits + s.cache_misses;
             return all ? double(s.cache_hits) / double(all) : 0;
           }),
           "ratio", n);
  out->Set("sqldb.index_path_share", med([](const WhatIfSample& s) {
             uint64_t all = s.index_path + s.scan_path;
             return all ? double(s.index_path) / double(all) : 0;
           }),
           "ratio", n);
  out->Set("sqldb.advisory_built",
           med([](const WhatIfSample& s) { return s.advisory_built; }),
           "count", n);
  out->Set("obs.trace_dropped_spans", double(spans.dropped), "count",
           spans.spans);
  out->Set("obs.trace_overhead", traced_p50 / plain_p50, "ratio", n);
  out->Set("speedup_vs_naive", Median(w.naive_ms) / plain_p50, "ratio",
           w.naive_ms.size());

  std::printf("\nself time per operation, bench spans (median ms, ops)\n");
  for (const auto& [name, per_id] : spans.self_ms) {
    std::printf("  %-18s %12.4f %8zu\n", name.c_str(), Median(spans.All(name)),
                per_id.size());
  }
  const double catchup = mixed ? catchup_ms : 0;
  const double snapshot = mixed ? snapshot_ms : 0;
  std::printf("accounting (medians of %zu traced what-ifs): catch-up %.3f + "
              "snapshot %.3f + plan %.3f + stage %.3f + replay %.3f + "
              "publish %.3f + unattributed %.3f = %.3f ms; traced whatif "
              "p50 %.3f ms\n",
              n, catchup, snapshot, plan_phase, stage, replay, publish,
              Median(unattributed),
              catchup + snapshot + plan_phase + stage + replay + publish +
                  Median(unattributed),
              traced_p50);
  // Medians do not add up; the what-if at the median wall time does, term
  // by term.
  std::vector<std::pair<double, size_t>> by_wall;
  for (size_t i = 0; i < n; ++i) by_wall.emplace_back(traced[i].wall_ms, i);
  std::nth_element(by_wall.begin(), by_wall.begin() + n / 2, by_wall.end());
  const size_t mid = by_wall[n / 2].second;
  const WhatIfSample& m = traced[mid];
  const double m_catchup = spans.Of("bench.catchup", m.id).value_or(0);
  const double m_snapshot = spans.Of("bench.snapshot", m.id).value_or(0);
  std::printf("median what-if: catch-up %.3f + snapshot %.3f + plan %.3f + "
              "stage %.3f + replay %.3f + publish %.3f + unattributed %.3f = "
              "%.3f ms; its wall time %.3f ms\n\n",
              m_catchup, m_snapshot, m.plan_phase_ms, m.stage_ms, m.replay_ms,
              m.publish_ms, unattributed[mid],
              m_catchup + m_snapshot + m.PhasesMs() + unattributed[mid],
              m.wall_ms);
}

int Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace) {
  const bool mixed = spec.writer_rate > 0;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", spec.name,
              (unsigned long long)seed, seconds, trace ? 1 : 0);
  std::printf("rtt_micros 0, replay pool %d, hash-jumper off, explain "
              "summary, %zu history txns, dependency rate %.1f, %s\n",
              spec.replay_threads, spec.history_txns, spec.dependency_rate,
              mixed ? "open-loop writer + analyst" : "pinned snapshot");
  if (trace) obs::SetTiming(true);  // worker busy/idle accounting
  SpanTimes spans;
  std::vector<double> setup_s, setup_commit_ms;
  std::vector<uint64_t> setup_ids;
  Totals totals;
  Window w;
  Instance inst;
  for (int k = 0; k < kSetups; ++k) {
    inst = Instance();  // release the previous instance first
    SetTracing(trace);
    inst = BuildInstance(spec, DerivedSeed(seed, k), &setup_commit_ms);
    SetTracing(false);
    setup_s.push_back(inst.setup_s);
    setup_ids.push_back(inst.setup_id);
    if (trace) HarvestTrace(&spans);
    if (mixed) {
      RunMixed(spec, &inst, seconds / kSetups, trace, &totals, &w);
    } else {
      RunPinned(&inst, seconds / kSetups, trace, &totals, &w);
    }
    if (trace) HarvestTrace(&spans);
  }
  totals.attempted += setup_commit_ms.size();
  bool complete = !w.whatifs.empty();
  Report report;
  if (!trace) {
    ReportEndToEnd(setup_s, w, mixed ? w.commit_ms : setup_commit_ms,
                   &report);
  } else {
    SetTracing(true);
    ProbeCounts probe = RunProbes(*w.last_snap, inst.op, kProbes);
    SetTracing(false);
    HarvestTrace(&spans);
    if (spans.dropped > 0) {
      std::printf("trace INCOMPLETE: %llu spans dropped; per-layer numbers "
                  "withheld\n", (unsigned long long)spans.dropped);
    }
    complete = w.whatifs.size() >= 2 && spans.dropped == 0;
    if (complete) {
      // Commit service time is below the trace's 1 us resolution, so it
      // is timed directly around the same RunTransaction calls.
      std::vector<double> commit_us = w.commit_service_us;
      if (!mixed) {
        for (double ms : setup_commit_ms) commit_us.push_back(ms * 1e3);
      }
      ReportPerLayer(mixed, setup_ids, w, commit_us, probe, spans, &report);
    }
  }
  const bool correct = totals.ok() && complete;
  report.Print(correct, totals.attempted, totals.failed + totals.mismatched);
  return correct ? 0 : 1;
}

/// --counts: the plan / DAG / staging counts of one what-if on the set-up
/// snapshot. For a fixed seed they must repeat exactly across runs.
int RunCounts(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<double> commit_ms;
  Instance inst = BuildInstance(spec, DerivedSeed(seed, 0), &commit_ms);
  WhatIfSample s;
  auto r = TimedAnalyze(inst.uv.get(), *inst.snap, inst.op,
                        obs::Registry::Global().Collect(), &s);
  if (!r.ok()) Die("what-if", r.status());
  ProbeCounts probe = RunProbes(*inst.snap, inst.op, 1);
  const bool matches = r->fingerprint == inst.naive_fingerprint;
  std::printf(
      "{\"plan_size\": %zu, \"suffix_size\": %zu, \"replayed\": %zu, "
      "\"critical_path\": %zu, \"dag_edges\": %zu, \"probe_plan_size\": %zu, "
      "\"probe_critical_path\": %zu, \"tables_staged\": %llu, "
      "\"matches_naive\": %s}\n",
      s.planned, s.suffix, s.replayed, s.critical_path, probe.dag_edges,
      probe.plan_size, probe.critical_path,
      (unsigned long long)s.tables_staged, matches ? "true" : "false");
  return matches ? 0 : 1;
}

}  // namespace
}  // namespace ultraverse::whatifbench

int main(int argc, char** argv) {
  using namespace ultraverse::whatifbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool counts = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--counts") {
      counts = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace = v == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload != spec.name) continue;
    if (counts) return RunCounts(spec, seed);
    if (seconds <= 0) {
      std::fprintf(stderr, "--seconds must be positive\n");
      return 2;
    }
    return Run(spec, seed, seconds, trace);
  }
  std::fprintf(stderr, "unknown workload '%s' (epinions-prune, tpcc-chain, "
               "tatp-mixed)\n", workload.c_str());
  return 2;
}
