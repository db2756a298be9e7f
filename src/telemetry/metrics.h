// MetricsRegistry: named counters, gauges and fixed-bucket histograms,
// cheap enough to leave enabled in benchmarks (a counter increment is one
// uint64_t add through a cached pointer). Besides owned metrics, the
// registry accepts *views* — read callbacks over counters that already
// live elsewhere (e.g. a PageDevice's IoStats or a V-page store's fetch
// counts) — so existing stat structs keep their layout and call sites
// while still appearing in every snapshot.
//
// Lifetime: pointers returned by GetCounter/GetGauge/GetHistogram stay
// valid until that name is removed via UnregisterPrefix; a registered
// view's source must outlive the view (instrumented objects unregister
// their prefix on destruction/detach).
//
// Thread-safety: *updates* through Counter/Gauge/Histogram handles are
// safe from any thread (atomics / a per-histogram mutex). The registry
// itself — GetCounter/RegisterView/UnregisterPrefix/Snapshot — is owner-
// thread only: register before fanning work out, snapshot after joining
// (see docs/threading.md).

#ifndef HDOV_TELEMETRY_METRICS_H_
#define HDOV_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hdov::telemetry {

// Counter/gauge updates and reads are atomic (relaxed), so instrumented
// code may bump them from worker threads — the parallel precompute does.
// Relaxed is enough: the metrics are monotone tallies read at snapshot
// time, after the phase's Wait() has already ordered worker writes.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `upper_bounds` (ascending) define the buckets
// [-inf, b0], (b0, b1], ..., plus an implicit overflow bucket. Observe and
// the readers take a mutex, so concurrent observations from workers are
// safe (bounds_ is immutable after construction and needs no lock).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double Mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  // bounds().size() + 1 buckets; bucket i <= bounds()[i], last = overflow.
  const std::vector<double>& bounds() const { return bounds_; }
  size_t num_buckets() const { return counts_.size(); }
  uint64_t bucket_count(size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[i];
  }

  // Approximate quantile (q in [0, 1]) assuming a uniform distribution
  // within each bucket; the overflow bucket reports its lower bound.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  mutable std::mutex mu_;  // Guards counts_/sum_/count_.
  std::vector<uint64_t> counts_;
  double sum_ = 0.0;
  uint64_t count_ = 0;
};

// `n` buckets at start, start*factor, start*factor^2, ...
std::vector<double> ExponentialBuckets(double start, double factor, size_t n);
// `n` buckets at start, start+width, start+2*width, ...
std::vector<double> LinearBuckets(double start, double width, size_t n);

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram, kView };

std::string_view MetricKindName(MetricKind kind);

// One metric's state at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // Counter/gauge/view reading.
  // Histogram payload (empty otherwise).
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  double sum = 0.0;
  uint64_t count = 0;
  // Interpolated percentiles (Histogram::Quantile), so reports carry
  // frame-time p50/p90/p99 without consumers re-deriving them from raw
  // buckets.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // Registration order.

  const MetricSample* Find(std::string_view name) const;
  std::string ToJson() const;   // A JSON array of metric objects.
  std::string ToTable() const;  // Human-readable aligned rows.
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Create-or-get. Returns nullptr when `name` exists with another kind
  // (a programming error; callers own their name prefixes).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `upper_bounds` is consulted only when the histogram is created.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  // Registers a read-through view over an external counter/stat. The
  // callback is invoked at snapshot time; `read`'s captures must stay
  // valid until the name is unregistered. Re-registering a name replaces
  // the previous view.
  void RegisterView(const std::string& name, std::function<double()> read);

  // Removes every metric whose name starts with `prefix`. Invalidates
  // pointers previously returned for those names.
  void UnregisterPrefix(std::string_view prefix);

  bool Contains(const std::string& name) const {
    return index_.find(name) != index_.end();
  }
  size_t size() const { return entries_.size(); }

  // Resets owned counters/gauges/histograms to zero (views are untouched;
  // reset their sources instead).
  void ResetValues();

  MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> view;
  };

  Entry* FindEntry(const std::string& name);
  Entry* Insert(const std::string& name, MetricKind kind);

  std::vector<std::unique_ptr<Entry>> entries_;  // Registration order.
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_METRICS_H_
