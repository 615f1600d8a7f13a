#ifndef ULTRAVERSE_OBS_TRACE_H_
#define ULTRAVERSE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/stopwatch.h"

namespace ultraverse::obs {

namespace internal {
/// Constant-initialized process-wide gate: a disabled tracer costs span
/// construction exactly one relaxed load (no static-init guard, no clock).
inline std::atomic<bool> g_tracing{false};
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing.load(std::memory_order_relaxed);
}

/// One span argument. Holds only a key pointer and a scalar/pointer value —
/// building a TraceArg never allocates, so passing args to a span on a
/// disabled tracer stays free. Keys and string values must outlive the
/// span constructor call (string literals and c_str() of live strings do).
struct TraceArg {
  enum class Kind { kInt, kDouble, kStr };
  const char* key;
  Kind kind;
  int64_t i = 0;
  double d = 0;
  const char* s = nullptr;

  TraceArg(const char* k, int64_t v) : key(k), kind(Kind::kInt), i(v) {}
  TraceArg(const char* k, int v) : key(k), kind(Kind::kInt), i(v) {}
  TraceArg(const char* k, unsigned v) : key(k), kind(Kind::kInt), i(v) {}
  TraceArg(const char* k, uint64_t v)
      : key(k), kind(Kind::kInt), i(int64_t(v)) {}
  TraceArg(const char* k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  TraceArg(const char* k, const char* v) : key(k), kind(Kind::kStr), s(v) {}
};

/// Records completed spans into per-thread ring buffers and flushes them as
/// Chrome trace-event JSON (load the file in Perfetto / chrome://tracing).
/// Each ring keeps the most recent kRingCapacity spans of its thread;
/// overflow overwrites the oldest completed spans (dropped count reported).
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 16384;

  static Tracer& Global();

  bool enabled() const { return TracingEnabled(); }
  void Enable();
  void Disable();

  /// Discards all recorded spans (thread rings stay registered).
  void Clear();

  size_t recorded_spans() const;
  size_t dropped_spans() const;

  /// Serializes every recorded span as Chrome trace-event JSON:
  /// {"traceEvents":[{"ph":"B"...},{"ph":"E"...},...],"displayTimeUnit":"ms"}.
  /// Spans are emitted as properly nested begin/end pairs per thread.
  std::string DumpJson() const;
  Status WriteFile(const std::string& path) const;

  /// The path the atexit flush will write (set by ULTRA_TRACE or
  /// SetFlushPath); empty = no flush at exit.
  void SetFlushPath(std::string path);
  std::string flush_path() const;

  /// Internal: called by TraceSpan's destructor.
  void RecordSpan(const char* name, uint64_t start_us, uint64_t dur_us,
                  std::string args_json);

 private:
  struct SpanRecord {
    const char* name;
    uint64_t start_us;
    uint64_t dur_us;
    uint64_t seq;  // completion order within the thread
    std::string args_json;
  };
  struct ThreadLog {
    int tid = 0;
    uint64_t written = 0;
    std::vector<SpanRecord> ring;
    mutable std::mutex mu;  // writer (owning thread) vs flush
  };

  Tracer();
  ThreadLog* ThisThreadLog();

  static thread_local ThreadLog* t_log_;

  mutable std::mutex mu_;  // guards logs_ registration and flush_path_
  std::vector<std::shared_ptr<ThreadLog>> logs_;
  std::string flush_path_;
  int next_tid_ = 1;
};

/// RAII scoped trace span:
///
///   obs::TraceSpan span("replay.slot", {{"log_index", i}});
///
/// Disabled tracer: one relaxed load in the constructor, a null check in
/// the destructor. Enabled: two clock reads plus one ring-buffer store.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : TraceSpan(name, {}) {}
  TraceSpan(const char* name, std::initializer_list<TraceArg> args);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = not recording
  uint64_t start_us_ = 0;
  std::string args_json_;
};

}  // namespace ultraverse::obs

#endif  // ULTRAVERSE_OBS_TRACE_H_
