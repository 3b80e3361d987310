// Timing helpers shared by the benchmark's measurement points: a steady-clock
// reading in nanoseconds, exact percentiles over small stored samples
// (advancement times, medians over one-second slices), and a lock-free
// log-bucketed histogram for latencies and per-layer spans, which fixed
// memory holds at any run length and many handler threads record into.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact p-th percentile (0..100) by linear interpolation between ranks.
// Reorders `v`. Returns 0 for an empty sample.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(lo), v.end());
  double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  double b = *std::min_element(v.begin() + static_cast<ptrdiff_t>(lo) + 1,
                               v.end());
  return a + (b - a) * (rank - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

// Nanosecond histogram: exact below 64 ns, then 64 sub-buckets per power of
// two (1.6% wide). Record() is one relaxed fetch_add per field, safe from any
// thread; Reset() and the readers expect writers to be quiescent or to
// tolerate a slightly stale view.
class NsHistogram {
 public:
  void Record(int64_t ns) {
    if (ns < 0) ns = 0;
    buckets_[Index(static_cast<uint64_t>(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t max_ns() const { return max_.load(std::memory_order_relaxed); }

  // p-th percentile in nanoseconds, interpolated inside the bucket that holds
  // the rank. 0 for an empty histogram.
  double PercentileNs(double p) const {
    uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    if (total == 0) return 0.0;
    double rank = p / 100.0 * static_cast<double>(total);
    double seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      double n = static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
      if (n > 0 && seen + n >= rank) {
        double frac = (rank - seen) / n;
        return static_cast<double>(Lower(i)) +
               frac * static_cast<double>(Width(i));
      }
      seen += n;
    }
    return static_cast<double>(max_ns());
  }

 private:
  static constexpr size_t kSub = 64;
  static constexpr size_t kBuckets = kSub * 59;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = 63 - std::countl_zero(v);  // v in [2^e, 2^(e+1)), e >= 6
    uint64_t sub = v >> (e - 6);       // in [64, 128)
    return kSub * static_cast<size_t>(e - 5) + static_cast<size_t>(sub - kSub);
  }
  static uint64_t Lower(size_t i) {
    if (i < kSub) return i;
    size_t e = i / kSub + 5;
    return (kSub + i % kSub) << (e - 6);
  }
  static uint64_t Width(size_t i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub + 5 - 6);
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> max_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
