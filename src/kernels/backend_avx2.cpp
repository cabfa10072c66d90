// AVX2 kernel backend: 256-bit tiles, positional-popcount via the classic
// nibble-LUT + psadbw reduction (Muła/Kurz/Lemire, arXiv:1611.07612 layout).
//
// Every function carries __attribute__((target("avx2"))) so this file
// compiles as part of the ordinary x86-64 build (no global -mavx2): the
// vector instructions exist only inside these bodies and the dispatcher in
// kernels.cpp never hands them out unless __builtin_cpu_supports("avx2").
//
// Bit-identity with backend_scalar.hpp is structural, not accidental: AND,
// ANDN and popcount are exact integer operations, the per-lane sums
// are added into 64-bit accumulators wide enough for any span (4 lanes x
// 255 max per psadbw step), and the tail runs the scalar loop itself.
#include "kernels/backend_simd.hpp"

#if XH_KERNELS_HAVE_X86

#include <immintrin.h>

#include "kernels/backend_scalar.hpp"

namespace xh::kernels::avx2 {
namespace {

constexpr std::size_t kLaneWords = 4;  // 256 bits

/// Per-byte popcount of @p v summed into four 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i popcount_lanes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(per_byte, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::uint64_t horizontal_sum(
    __m256i acc) {
  std::uint64_t lanes[kLaneWords];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx2"))) inline __m256i load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

}  // namespace

__attribute__((target("avx2"))) std::size_t and_count_words(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m256i fused = _mm256_and_si256(load(a + i), load(b + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(fused));
  }
  return static_cast<std::size_t>(horizontal_sum(acc)) +
         scalar::and_count_words(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) std::size_t and_not_count_words(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    // andnot computes ~first & second, so b goes first.
    const __m256i fused = _mm256_andnot_si256(load(b + i), load(a + i));
    acc = _mm256_add_epi64(acc, popcount_lanes(fused));
  }
  return static_cast<std::size_t>(horizontal_sum(acc)) +
         scalar::and_not_count_words(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void and_words_into(std::uint64_t* dst,
                                                    const std::uint64_t* a,
                                                    const std::uint64_t* b,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(load(a + i), load(b + i)));
  }
  scalar::and_words_into(dst + i, a + i, b + i, n - i);
}

}  // namespace xh::kernels::avx2

#endif  // XH_KERNELS_HAVE_X86
