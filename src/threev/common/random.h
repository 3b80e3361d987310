#ifndef THREEV_COMMON_RANDOM_H_
#define THREEV_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace threev {

// Deterministic, fast PRNG (xoshiro256**). Seeded explicitly everywhere so
// simulations and property tests replay bit-identically from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform in [lo, hi]. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponentially distributed with the given mean (> 0). Used for
  // inter-arrival times and simulated network delays.
  double Exponential(double mean);

 private:
  uint64_t s_[4];
};

// Zipf-distributed integers over [0, n). Precomputes the CDF once; sampling
// is O(log n). theta = 0 degenerates to uniform; typical skew is 0.8-1.2.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

}  // namespace threev

#endif  // THREEV_COMMON_RANDOM_H_
