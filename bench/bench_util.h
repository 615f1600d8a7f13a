#ifndef ULTRAVERSE_BENCH_BENCH_UTIL_H_
#define ULTRAVERSE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/ultraverse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/workload.h"

namespace ultraverse::bench {

/// Benchmark sizing. Default sizes complete the whole suite in minutes;
/// UV_BENCH_SCALE=full enlarges histories ~8x for paper-shaped runs.
inline int HistoryScale() {
  const char* env = std::getenv("UV_BENCH_SCALE");
  if (env && std::string(env) == "full") return 8;
  return 1;
}

struct Instance {
  std::unique_ptr<core::Ultraverse> uv;
  uint64_t retro_target = 0;
};

struct InstanceOptions {
  std::string workload;
  size_t history_txns = 300;
  int db_scale = 1;
  double dependency_rate = 0.5;
  // Histories commit through the transpiled procedures: identical final
  // state (tested), ~4x faster to build, and procedure-variable capture
  // enables the §4.3 RI concretization during analysis.
  core::SystemMode commit_mode = core::SystemMode::kT;
  bool hash_jumper = false;
  bool eager_analysis = false;
  bool eager_hash_log = false;
  uint64_t seed = 1;
  uint64_t rtt_micros = 1000;
  /// Statement execution engine for the instance's database (history build
  /// and replay both run through it). Unset = the process default.
  std::optional<sql::ExecEngine> exec_engine;
};

/// Builds a populated instance with a committed history and a designated
/// retroactive target. Aborts the process on setup failure (benchmarks
/// have no meaningful fallback).
inline Instance BuildInstance(const InstanceOptions& opts) {
  Instance inst;
  core::Ultraverse::Options uv_opts;
  uv_opts.rtt_micros = opts.rtt_micros;
  uv_opts.hash_jumper = opts.hash_jumper;
  uv_opts.eager_analysis = opts.eager_analysis;
  uv_opts.eager_hash_log = opts.eager_hash_log;
  uv_opts.exec_engine = opts.exec_engine;
  inst.uv = std::make_unique<core::Ultraverse>(uv_opts);

  workload::Driver::Config config;
  config.scale = opts.db_scale;
  config.dependency_rate = opts.dependency_rate;
  config.commit_mode = opts.commit_mode;
  config.seed = opts.seed;
  workload::Driver driver(
      workload::MakeWorkload(opts.workload, opts.db_scale), inst.uv.get(),
      config);
  Status st = driver.Setup();
  if (st.ok()) st = driver.RunHistory(opts.history_txns);
  if (!st.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n",
                 opts.workload.c_str(), st.ToString().c_str());
    std::exit(1);
  }
  inst.retro_target = driver.retro_target_index();
  return inst;
}

/// What-if "runtime" combining measured wall time with the simulated
/// client<->server RTT cost (see DESIGN.md's RTT substitution).
inline double TotalSeconds(const core::ReplayStats& stats) {
  return double(stats.report.WallMicros() + stats.virtual_rtt_micros) / 1e6;
}

/// The simulated-RTT share of TotalSeconds, in milliseconds.
inline double VirtualRttMs(const core::ReplayStats& stats) {
  return double(stats.virtual_rtt_micros) / 1e3;
}

inline std::string FmtSeconds(double s) {
  char buf[32];
  if (s >= 3600) {
    std::snprintf(buf, sizeof(buf), "%.2fH", s / 3600);
  } else if (s >= 1) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fms", s * 1000);
  }
  return buf;
}

inline std::string FmtBytes(size_t bytes) {
  char buf[32];
  if (bytes >= (size_t(1) << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGB", double(bytes) / (1 << 30));
  } else if (bytes >= (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", double(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fKB", double(bytes) / (1 << 10));
  }
  return buf;
}

/// Prints a row of fixed-width cells.
inline void PrintRow(const std::vector<std::string>& cells, int width = 12) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_note) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper_note.c_str());
  std::printf("================================================================\n");
}

// --- Machine-readable results + tracing flags -------------------------------

/// Path given via --trace-out= (empty = tracing not requested).
inline std::string g_trace_out;

/// Path given via --metrics-out= (empty = no metrics snapshot at exit).
inline std::string g_metrics_out;

/// Call first thing in main(): parses and strips the shared bench flags so
/// leftover argv can be handed to other flag parsers (benchmark::Initialize
/// in bench_micro). --trace-out=<path> enables tracing + latency timing and
/// makes the BenchSession destructor write a Chrome trace-event JSON file;
/// --metrics-out=<path> makes it write a JSON metrics-registry snapshot.
inline void ParseBenchFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view a(argv[i]);
    if (a.rfind("--trace-out=", 0) == 0) {
      g_trace_out = std::string(a.substr(12));
      obs::Tracer::Global().Enable();
      obs::SetTiming(true);
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      g_metrics_out = std::string(a.substr(14));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// One field of a result row; constructible from the value types benches
/// report so Row({{"workload", name}, {"seconds", secs}}) just works.
struct BenchField {
  std::string key;
  enum class Kind { kInt, kNum, kStr } kind;
  int64_t i = 0;
  double num = 0;
  std::string str;

  BenchField(const char* k, int v) : key(k), kind(Kind::kInt), i(v) {}
  BenchField(const char* k, unsigned v) : key(k), kind(Kind::kInt), i(v) {}
  BenchField(const char* k, long v) : key(k), kind(Kind::kInt), i(v) {}
  BenchField(const char* k, unsigned long v)
      : key(k), kind(Kind::kInt), i(int64_t(v)) {}
  BenchField(const char* k, double v) : key(k), kind(Kind::kNum), num(v) {}
  BenchField(const char* k, const char* v)
      : key(k), kind(Kind::kStr), str(v) {}
  BenchField(const char* k, const std::string& v)
      : key(k), kind(Kind::kStr), str(v) {}
};

/// Collects result rows and writes them as JSON lines to BENCH_<name>.json
/// at destruction; every bench main wraps its run in one session so runs
/// are machine-readable alongside the printed tables. When --trace-out was
/// given, the destructor also flushes the Chrome trace.
class BenchSession {
 public:
  explicit BenchSession(std::string name) : name_(std::move(name)) {}

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  /// Appends one JSON result row: {"bench":"<name>","k":v,...}.
  void Row(std::initializer_list<BenchField> fields) {
    std::string line = "{\"bench\":\"" + JsonEscape(name_) + "\"";
    for (const BenchField& f : fields) {
      line += ",\"" + JsonEscape(f.key) + "\":";
      char buf[40];
      switch (f.kind) {
        case BenchField::Kind::kInt:
          std::snprintf(buf, sizeof(buf), "%lld", (long long)f.i);
          line += buf;
          break;
        case BenchField::Kind::kNum:
          std::snprintf(buf, sizeof(buf), "%.6g", f.num);
          line += buf;
          break;
        case BenchField::Kind::kStr:
          line += '"' + JsonEscape(f.str) + '"';
          break;
      }
    }
    line += '}';
    rows_.push_back(std::move(line));
  }

  ~BenchSession() {
    if (!g_trace_out.empty()) {
      // Spans the trace ring overwrote are lost from the file: report them
      // beside the recorded count, and as a result row.
      const obs::Tracer& tracer = obs::Tracer::Global();
      Status st = tracer.WriteFile(g_trace_out);
      if (st.ok()) {
        std::printf("[bench] trace (%zu spans, %zu dropped) -> %s\n",
                    tracer.recorded_spans(), tracer.dropped_spans(),
                    g_trace_out.c_str());
      } else {
        std::fprintf(stderr, "[bench] trace flush failed: %s\n",
                     st.ToString().c_str());
      }
      Row({{"trace_spans", tracer.recorded_spans()},
           {"trace_dropped_spans", tracer.dropped_spans()}});
    }
    if (!rows_.empty()) {
      std::string path = "BENCH_" + name_ + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        for (const auto& r : rows_) std::fprintf(f, "%s\n", r.c_str());
        std::fclose(f);
        std::printf("[bench] %zu result rows -> %s\n", rows_.size(),
                    path.c_str());
      } else {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      }
    }
    if (!g_metrics_out.empty()) {
      if (std::FILE* f = std::fopen(g_metrics_out.c_str(), "w")) {
        std::string json = obs::Registry::Global().ExportJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("[bench] metrics snapshot -> %s\n",
                    g_metrics_out.c_str());
      } else {
        std::fprintf(stderr, "[bench] cannot write %s\n",
                     g_metrics_out.c_str());
      }
    }
  }

 private:
  std::string name_;
  std::vector<std::string> rows_;
};

}  // namespace ultraverse::bench

#endif  // ULTRAVERSE_BENCH_BENCH_UTIL_H_
