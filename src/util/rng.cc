#include "src/util/rng.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/bits.h"

namespace gjoin::util {

namespace {

constexpr uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

uint64_t SplitMix64(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ULL;
  return Mix64(*state);
}

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double UnitDouble(uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  s0_ = SplitMix64(&sm);
  s1_ = SplitMix64(&sm);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;  // xoroshiro must not be all-zero.
}

uint64_t Rng::Next64() {
  // xoroshiro128++ step.
  const uint64_t result = RotL(s0_ + s1_, 17) + s0_;
  const uint64_t t = s1_ ^ s0_;
  s0_ = RotL(s0_, 49) ^ t ^ (t << 21);
  s1_ = RotL(t, 28);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  // Lemire's nearly-divisionless bounded generation.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() { return UnitDouble(Next64()); }

// ---------------------------------------------------------------------------
// ZipfGenerator — rejection-inversion (Hörmann & Derflinger 1996).
//
// H(x) is an integral approximation of the discrete CDF; candidates are
// drawn by inverting H over [H(0.5), H(n + 0.5)] and accepted with a
// probability that corrects the approximation error. The acceptance rate
// exceeds ~70% for all s, so sampling is O(1) expected time.
// ---------------------------------------------------------------------------

ZipfGenerator::ZipfGenerator(uint64_t n, double s, uint64_t seed)
    : n_(n == 0 ? 1 : n), s_(s < 0 ? 0.0 : s), rng_(seed) {
  h_n_ = H(static_cast<double>(n_) + 0.5);
  cut_ = H(0.5);
  // A NaN or overflowed constant rejects every draw, so Next() would
  // never return.
  if (!std::isfinite(s) || !std::isfinite(h_n_) || !std::isfinite(cut_)) {
    std::fprintf(stderr, "gjoin: Zipf skew %g gives no finite sampler\n", s);
    std::abort();
  }
}

double ZipfGenerator::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfGenerator::HInverse(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfGenerator::Candidate(uint64_t raw) const {
  const double u = cut_ + UnitDouble(raw) * (h_n_ - cut_);
  const double x = HInverse(u);
  uint64_t k = static_cast<uint64_t>(x + 0.5);
  if (k < 1) k = 1;
  if (k > n_) k = n_;
  const double kd = static_cast<double>(k);
  // Accept if u lands within the correction band around rank k.
  return u >= H(kd + 0.5) - std::pow(kd, -s_) ? k : 0;
}

uint64_t ZipfGenerator::Next() {
  if (s_ == 0.0) return rng_.Uniform(n_) + 1;  // Uniform fast path.
  while (true) {
    const uint64_t k = Candidate(rng_.Next64());
    if (k != 0) return k;
  }
}

}  // namespace gjoin::util
