// Scalar reference kernels over raw 64-bit word spans.
//
// This is the semantic ground truth of the kernel layer: every SIMD backend
// in src/kernels/ must be bit-identical to these loops on every input, and
// the randomized differential suite in tests/kernels/ pins that property.
// The functions are constexpr so the constant-evaluation branch of the
// public wrappers in kernels.hpp (and through them the static_assert proofs
// in tests/static/) executes exactly this code — the compiler checks the
// reference semantics on every build.
//
// Deliberately a leaf header (<bit> and the two size headers only): the
// loops take raw word spans, and the BitVec-level checks live in
// kernels.hpp.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace xh::kernels::scalar {

/// popcount(a & b) over @p n words — the fused hot primitive of
/// X-correlation analysis (restricted X counts).
constexpr std::size_t and_count_words(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return total;
}

/// popcount(a & ~b) over @p n words.
constexpr std::size_t and_not_count_words(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
  }
  return total;
}

/// dst = a & b over @p n words (dst may alias a or b).
constexpr void and_words_into(std::uint64_t* dst, const std::uint64_t* a,
                              const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

}  // namespace xh::kernels::scalar
