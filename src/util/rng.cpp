#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace xh {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& lane : s_) lane = splitmix64(seed);
  // A pathological all-zero state would make xoshiro degenerate; splitmix64
  // cannot produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  XH_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (width == 0) {  // full 64-bit span
    return static_cast<std::int64_t>(next_u64());
  }
  return lo + static_cast<std::int64_t>(below(width));
}

double Rng::uniform() {
  // 53 random mantissa bits → uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::gaussian() {
  // Irwin–Hall with n=12: sum of 12 uniforms has mean 6, variance 1.
  double acc = 0.0;
  for (int i = 0; i < 12; ++i) acc += uniform();
  return acc - 6.0;
}

std::array<std::uint64_t, 4> Rng::state() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& state) {
  XH_REQUIRE((state[0] | state[1] | state[2] | state[3]) != 0,
             "Rng::set_state rejects the all-zero xoshiro state");
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  XH_REQUIRE(k <= n, "cannot sample more items than the population size");
  // Floyd's algorithm: O(k) expected insertions, no O(n) scratch when k << n.
  std::vector<std::size_t> picked;
  picked.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(below(j + 1));
    if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
      picked.push_back(t);
    } else {
      picked.push_back(j);
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace xh
