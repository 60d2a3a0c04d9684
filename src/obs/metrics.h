#ifndef BATI_OBS_METRICS_H_
#define BATI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bati {

/// A monotonically increasing counter. Increment/Add are wait-free relaxed
/// atomics, safe to call from any thread; value() is a snapshot-on-read.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-value gauge (settable both ways, unlike a Counter).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// `count` bucket upper bounds starting at `start`, each `factor` times the
/// previous: the standard exponential ladder for latency-style metrics whose
/// interesting range spans orders of magnitude.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

/// A fixed-bucket histogram of nonnegative values (latencies, depths, batch
/// sizes). The recording path is a bucket binary-search plus relaxed atomic
/// increments — no locks, no allocation — so hot paths on several threads
/// can record concurrently. Percentiles are estimated at
/// snapshot time by linear interpolation inside the owning bucket and
/// clamped to the observed [min, max], which makes them exact when all
/// observations share one value.
class LatencyHistogram {
 public:
  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// `bounds` are the strictly increasing bucket upper bounds; values above
  /// the last bound land in an unbounded overflow bucket.
  explicit LatencyHistogram(std::vector<double> bounds);

  void Record(double value);
  Snapshot Snap() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  double PercentileLocked(const std::vector<int64_t>& counts, int64_t total,
                          double q, double lo, double hi) const;

  std::vector<double> bounds_;
  /// bounds_.size() + 1 buckets; the last one is the overflow bucket.
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Everything a MetricsRegistry held at one instant, ordered by metric name.
/// Detached from the registry: cheap to copy into a RunOutcome or compare
/// across runs.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    LatencyHistogram::Snapshot stats;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// The named histogram row, or nullptr. (Tests and tools.)
  const HistogramRow* FindHistogram(const std::string& name) const;
  /// The named counter's value, or `fallback` when absent.
  int64_t CounterValue(const std::string& name, int64_t fallback = 0) const;

  /// Stable machine-readable JSON:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...},...}}.
  std::string ToJson() const;
  /// Human-readable run report (one metric per line, histograms with
  /// count/mean/p50/p95/p99/max columns).
  std::string ToText() const;
};

/// A process-local registry of named metrics. Get*() registers on first use
/// and returns a pointer that stays valid for the registry's lifetime —
/// components resolve their metrics once at wiring time and then touch only
/// the lock-free instruments, so the registry mutex is never on a hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only when the histogram is created by this call; a
  /// later Get with the same name returns the existing instrument.
  LatencyHistogram* GetHistogram(const std::string& name,
                                 std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace bati

#endif  // BATI_OBS_METRICS_H_
