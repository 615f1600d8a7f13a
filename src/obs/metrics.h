#ifndef ULTRAVERSE_OBS_METRICS_H_
#define ULTRAVERSE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stopwatch.h"

namespace ultraverse::obs {

/// Number of per-metric shards. Hot-path increments hash the calling thread
/// onto one cache-line-padded shard, so concurrent writers from up to
/// kMetricShards threads never contend; readers merge all shards.
inline constexpr unsigned kMetricShards = 16;

/// Latency histograms use fixed exponential buckets in microseconds:
/// bucket b counts values in [2^(b-1), 2^b) (bucket 0 holds zeros), the
/// last bucket is a catch-all. 2^26 us ≈ 67s comfortably covers every
/// phase this system times.
inline constexpr unsigned kHistogramBuckets = 28;

namespace internal {

/// Process-wide relaxed flag gating clock-reading instrumentation
/// (ScopedLatency and other wall-clock accounting). Constant-
/// initialized at namespace scope so the disabled check is one relaxed
/// load with no static-init guard.
inline std::atomic<bool> g_timing{false};

unsigned ThisThreadShard();

struct alignas(64) CounterCell {
  std::atomic<uint64_t> v{0};
};

struct alignas(64) GaugeCell {
  std::atomic<int64_t> v{0};
};

}  // namespace internal

/// True when latency timing (clock reads around instrumented sections) is
/// on. Counters and gauges are always live; they cost one relaxed add.
inline bool TimingEnabled() {
  return internal::g_timing.load(std::memory_order_relaxed);
}
void SetTiming(bool enabled);

/// Monotonically increasing event count. Uncontended under kMetricShards
/// concurrent writers; Value() merges shards.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[internal::ThisThreadShard()].v.fetch_add(n,
                                                    std::memory_order_relaxed);
  }
  void Inc() { Add(1); }
  uint64_t Value() const;

 private:
  friend class Registry;
  void Reset();
  std::array<internal::CounterCell, kMetricShards> cells_;
};

/// Signed instantaneous value maintained by deltas (e.g. queue depth:
/// Add(+1) on push, Add(-1) on pop). Value() merges shards.
class Gauge {
 public:
  void Add(int64_t delta) {
    cells_[internal::ThisThreadShard()].v.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  /// Overwrites the merged value. Not shard-local (rare-path only).
  void Set(int64_t value);
  int64_t Value() const;

 private:
  friend class Registry;
  void Reset();
  std::array<internal::GaugeCell, kMetricShards> cells_;
};

struct HistogramSnapshot;

/// Fixed-bucket latency histogram (microseconds). Record() touches only the
/// calling thread's shard: one relaxed add to a bucket plus count/sum.
class Histogram {
 public:
  void Record(uint64_t value_us) {
    Shard& s = shards_[internal::ThisThreadShard()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value_us, std::memory_order_relaxed);
    s.buckets[BucketIndex(value_us)].fetch_add(1, std::memory_order_relaxed);
  }

  static unsigned BucketIndex(uint64_t value_us) {
    unsigned b = 0;
    while (value_us > 0 && b + 1 < kHistogramBuckets) {
      value_us >>= 1;
      ++b;
    }
    return b;
  }
  /// Exclusive upper bound of bucket `b` in microseconds.
  static uint64_t BucketUpperBound(unsigned b) { return uint64_t(1) << b; }

  HistogramSnapshot Snapshot(std::string name) const;

 private:
  friend class Registry;
  void Reset();
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// RAII latency timer: records elapsed micros into `hist` at scope exit.
/// When timing is disabled the constructor is one relaxed load and the
/// destructor a null check — no clock reads.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist)
      : hist_(TimingEnabled() ? hist : nullptr),
        start_us_(hist_ ? NowMicros() : 0) {}
  ~ScopedLatency() {
    if (hist_) hist_->Record(NowMicros() - start_us_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_us_;
};

// --- Snapshots (merged shard state at one point in time) --------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum_us = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double MeanUs() const { return count ? double(sum_us) / double(count) : 0; }
  /// Upper bound (us) of the bucket containing quantile `q` in [0,1].
  uint64_t QuantileUpperBoundUs(double q) const;
};

struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// Process-wide metric registry. Metric objects are created on first
/// lookup and never destroyed, so call sites cache the returned pointer in
/// a function-local static and pay the name lookup once:
///
///   static obs::Counter* const hits =
///       obs::Registry::Global().counter("uv.hashjumper.hits");
///   hits->Inc();
class Registry {
 public:
  static Registry& Global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Merged point-in-time view of every registered metric.
  Snapshot Collect() const;

  /// Prometheus text exposition format ('.' in names becomes '_').
  std::string ExportPrometheus() const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum_us,
  /// buckets:[...]}}}
  std::string ExportJson() const;

  /// Zeroes every metric's value. Registered objects stay valid (cached
  /// pointers keep working) — for tests and benchmark isolation.
  void ResetForTest();

 private:
  Registry() = default;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ultraverse::obs

#endif  // ULTRAVERSE_OBS_METRICS_H_
