// AVX-512 kernel backend: 512-bit tiles with the native per-qword popcount
// (VPOPCNTDQ). Requires avx512f + avx512vpopcntdq; the dispatcher in
// kernels.cpp checks both through __builtin_cpu_supports before this table
// is ever selectable, and every body carries the matching target attribute
// so the file builds without global -m flags (see backend_avx2.cpp).
//
// Bit-identity with backend_scalar.hpp holds for the same reason as the
// AVX2 tiling: AND/ANDN/popcount are exact, the accumulator lanes are
// 64-bit, and the sub-tile tail is the scalar loop itself.
#include "kernels/backend_simd.hpp"

#if XH_KERNELS_HAVE_X86

#include <immintrin.h>

#include "kernels/backend_scalar.hpp"

#define XH_AVX512_TARGET __attribute__((target("avx512f,avx512vpopcntdq")))

namespace xh::kernels::avx512 {
namespace {

constexpr std::size_t kLaneWords = 8;  // 512 bits

XH_AVX512_TARGET inline __m512i load(const std::uint64_t* p) {
  return _mm512_loadu_si512(p);
}

// _mm512_reduce_add_epi64 expands through _mm512_undefined_epi32, whose
// deliberate self-initialization trips -Werror=uninitialized when inlined
// under GCC 12; an explicit store-and-sum sidesteps the header noise.
XH_AVX512_TARGET inline std::uint64_t horizontal_sum(__m512i acc) {
  std::uint64_t lanes[kLaneWords];
  _mm512_storeu_si512(lanes, acc);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kLaneWords; ++i) total += lanes[i];
  return total;
}

}  // namespace

XH_AVX512_TARGET std::size_t and_count_words(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i fused = _mm512_and_si512(load(a + i), load(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(fused));
  }
  return static_cast<std::size_t>(horizontal_sum(acc)) +
         scalar::and_count_words(a + i, b + i, n - i);
}

XH_AVX512_TARGET std::size_t and_not_count_words(const std::uint64_t* a,
                                                 const std::uint64_t* b,
                                                 std::size_t n) {
  // _mm512_andnot_si512 shares the -Wmaybe-uninitialized header noise that
  // horizontal_sum documents, so spell ~b as b ^ ones instead.
  const __m512i ones = _mm512_set1_epi64(-1);
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    const __m512i fused =
        _mm512_and_si512(load(a + i), _mm512_xor_si512(load(b + i), ones));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(fused));
  }
  return static_cast<std::size_t>(horizontal_sum(acc)) +
         scalar::and_not_count_words(a + i, b + i, n - i);
}

XH_AVX512_TARGET void and_words_into(std::uint64_t* dst,
                                     const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLaneWords <= n; i += kLaneWords) {
    _mm512_storeu_si512(dst + i, _mm512_and_si512(load(a + i), load(b + i)));
  }
  scalar::and_words_into(dst + i, a + i, b + i, n - i);
}

}  // namespace xh::kernels::avx512

#endif  // XH_KERNELS_HAVE_X86
