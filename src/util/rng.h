// Deterministic random-number generation for workload synthesis.
//
// All generators are seedable and reproducible across runs and platforms,
// which the test suite and the experiment harness rely on. The Zipf
// sampler implements Hörmann & Derflinger's rejection-inversion method,
// which draws from a Zipf(n, s) distribution in O(1) expected time without
// precomputing harmonic tables — required because the paper's skew
// experiments (Figs. 17-20) use up to hundreds of millions of distinct
// values.

#ifndef GJOIN_UTIL_RNG_H_
#define GJOIN_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gjoin::util {

/// \brief Fast 64-bit PRNG (xoroshiro128++), seeded via SplitMix64.
class Rng {
 public:
  /// Creates a generator; distinct seeds give independent streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next 64 uniform random bits.
  uint64_t Next64();

  /// Next 32 uniform random bits.
  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift method.
  /// bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

 private:
  uint64_t s0_;
  uint64_t s1_;
};

/// Fisher-Yates shuffle of `data` driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* data, Rng* rng) {
  for (size_t i = data->size(); i > 1; --i) {
    size_t j = rng->Uniform(i);
    std::swap((*data)[i - 1], (*data)[j]);
  }
}

/// \brief O(1) Zipf(n, s) sampler (rejection-inversion).
///
/// Samples ranks in [1, n] with P(k) proportional to 1 / k^s. s = 0
/// degenerates to the uniform distribution. Matches the zipf-factor axis
/// of the paper's Figures 17, 18 and 20.
class ZipfGenerator {
 public:
  /// \param n number of distinct ranks (n = 0 is treated as 1)
  /// \param s skew parameter (>= 0; negative means 0); s = 0 means
  ///        uniform. A skew that is not finite, or so large that the
  ///        sampler's constants overflow, aborts naming the value: no draw
  ///        would ever be accepted.
  /// \param seed PRNG seed
  ZipfGenerator(uint64_t n, double s, uint64_t seed);

  /// Next rank in [1, n]: Candidate() over fresh rng() draws until one is
  /// accepted. s = 0 instead takes one Rng::Uniform draw.
  uint64_t Next();

  /// One rejection-inversion step for s > 0: maps one raw Rng::Next64()
  /// draw to its rank in [1, n], or to 0 when the step rejects it. The
  /// outcome depends on `raw` alone, so a block of draws taken in order
  /// from rng() may be mapped in parallel and filtered in draw order to
  /// give exactly the ranks Next() would.
  uint64_t Candidate(uint64_t raw) const;

  /// The draw stream Next() consumes.
  Rng* rng() { return &rng_; }

  /// The configured skew parameter.
  double skew() const { return s_; }

  /// The configured number of ranks.
  uint64_t n() const { return n_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double s_;
  Rng rng_;
  // Precomputed constants of the rejection-inversion method.
  double h_n_;
  double cut_;
};

}  // namespace gjoin::util

#endif  // GJOIN_UTIL_RNG_H_
