// Small statistics and accounting helpers of the wall-clock benchmark:
// nearest-rank percentiles that refuse a tail with too few samples beyond
// it, medians, and the attempted/failed tally every workload reports.

#ifndef HDOV_PERFBENCH_BENCH_STATS_H_
#define HDOV_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// A tail percentile is only reported when at least this many samples lie
// strictly beyond it; otherwise one slow sample would be the whole tail.
inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of quantile q in [0, 1] over n samples.
inline size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

// Nearest-rank percentile (an observed value, never interpolated). Returns
// nothing for an empty input, and for q > 0.5 when fewer than
// kMinSamplesBeyond samples lie beyond the rank. The median is always
// reported for a non-empty input.
inline std::optional<double> Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nullopt;
  }
  const size_t rank = NearestRank(values.size(), q);
  if (q > 0.5 && values.size() - rank < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// The median, or 0 for an empty input.
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5).value_or(0.0);
}

// The tail a latency metric reports: p90 when it has enough samples beyond
// it, else the median (so a workload with few long operations, such as a
// world build, reports its median as its tail). Not p99: on a shared host
// the p99 of the same code moves between runs nearly twice as far as p90.
inline double TailPercentile(const std::vector<double>& values) {
  return Percentile(values, 0.90).value_or(Median(values));
}

// One slice of a run's timed work: how long it took, how many operations
// completed in it, and their latencies.
struct Window {
  double seconds = 0.0;
  uint64_t ops = 0;
  std::vector<double> latency_us;
};

// The timing a run reports: the throughput of a share of its windows,
// picked by rate, and their latencies pooled.
struct WindowSummary {
  double ops_per_s = 0.0;
  std::vector<double> latency_us;
  size_t windows_used = 0;
  size_t windows = 0;
};

// Sorts windows fastest first, by ops / seconds.
inline void SortFastestFirst(std::vector<Window>* windows) {
  std::sort(windows->begin(), windows->end(),
            [](const Window& a, const Window& b) {
              // a faster than b: a.ops / a.seconds > b.ops / b.seconds.
              return static_cast<double>(a.ops) * b.seconds >
                     static_cast<double>(b.ops) * a.seconds;
            });
}

// Pools `count` windows of `sorted` from index `begin` on: their combined
// throughput and all their latencies.
inline WindowSummary PoolWindows(const std::vector<Window>& sorted,
                                 size_t begin, size_t count) {
  WindowSummary out;
  out.windows = sorted.size();
  begin = std::min(begin, sorted.size());
  out.windows_used = std::min(count, sorted.size() - begin);
  double seconds = 0.0;
  uint64_t ops = 0;
  for (size_t i = begin; i < begin + out.windows_used; ++i) {
    seconds += sorted[i].seconds;
    ops += sorted[i].ops;
    out.latency_us.insert(out.latency_us.end(), sorted[i].latency_us.begin(),
                          sorted[i].latency_us.end());
  }
  out.ops_per_s = seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  return out;
}

// A single thread's short windows show the host in two states: contended,
// where the rate holds within a few percent, and free, which comes and
// goes within seconds and varies far more. The share of each in a run is
// random, so such a run reports the contended level: its slowest tenth
// (at least one window).
inline WindowSummary SlowestTenth(std::vector<Window> windows) {
  SortFastestFirst(&windows);
  const size_t n = std::max<size_t>(1, windows.size() / 10);
  return PoolWindows(windows, windows.size() - std::min(n, windows.size()), n);
}

// A run of a few long windows (builds) reports its median window (the
// faster of two middles), used whole: each window already spans seconds of
// host load, and the fastest of a handful moves far more between runs.
inline WindowSummary MedianWindow(std::vector<Window> windows) {
  SortFastestFirst(&windows);
  return windows.empty()
             ? WindowSummary()
             : PoolWindows(windows, NearestRank(windows.size(), 0.5) - 1, 1);
}

// Attempted operations and checks, and how many of them failed. Failures
// count against the number attempted: an operation that errors and a
// correctness check that does not hold both add one failure.
class Tally {
 public:
  void Ops(uint64_t attempted, uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Records one correctness check; a failed one is also described on
  // stderr so the run explains itself.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) {
        failures_.push_back(what);
      }
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double failed_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_BENCH_STATS_H_
