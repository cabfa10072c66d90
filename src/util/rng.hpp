// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (circuit generation, workload
// synthesis, random-fill ATPG) take an explicit Rng so experiments are
// reproducible from a single seed. The generator is xoshiro256** seeded
// through splitmix64, which is both fast and statistically strong enough
// for workload synthesis.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace xh {

/// xoshiro256** PRNG with convenience sampling helpers.
class Rng {
 public:
  /// Seeds the full 256-bit state from @p seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Defined here, with below(), so that the hot
  /// sampling loops (workload synthesis draws millions) inline them.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) — @p bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive — requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with probability @p p (clamped to [0,1]).
  bool chance(double p);

  /// Approximately Gaussian sample (sum of uniforms), mean 0, stddev 1.
  double gaussian();

  /// Fisher–Yates shuffle of @p items.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples @p k distinct values from [0, n) in increasing order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Full 256-bit generator state, for checkpoint/resume. A generator
  /// restored via set_state() produces the exact sequence the saved one
  /// would have.
  std::array<std::uint64_t, 4> state() const;

  /// Restores a state captured by state(). Rejects the all-zero state
  /// (xoshiro's sole degenerate fixed point).
  void set_state(const std::array<std::uint64_t, 4>& state);

 private:
  std::uint64_t s_[4];
};

/// Rng::below(bound) with its rejection threshold computed once, for loops
/// that draw many values under one bound; it draws exactly what below()
/// draws.
class UniformBelow {
 public:
  /// @p bound must be > 0.
  explicit UniformBelow(std::uint64_t bound)
      : bound_(bound), threshold_(bound > 0 ? (0 - bound) % bound : 0) {
    XH_REQUIRE(bound > 0, "Rng::below bound must be positive");
  }

  std::uint64_t operator()(Rng& rng) const {
    // Rejection sampling to remove modulo bias.
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold_) return r % bound_;
    }
  }

 private:
  std::uint64_t bound_;
  std::uint64_t threshold_;
};

inline std::uint64_t Rng::below(std::uint64_t bound) {
  return UniformBelow(bound)(*this);
}

}  // namespace xh
