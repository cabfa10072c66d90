// Differential suite for the dispatched kernel layer: every backend the
// running CPU can execute must be bit-identical to the constexpr scalar
// reference (backend_scalar.hpp) on randomized inputs, including the
// tail-mask and odd-span edges.
//
// CI runs this under ASan/UBSan (the sanitizer test legs build the whole
// tree), which doubles as an out-of-bounds probe on the SIMD tilings.
#include "kernels/kernels.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/backend_scalar.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

std::vector<kernels::Isa> supported_isas() {
  std::vector<kernels::Isa> isas;
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (kernels::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

std::uint64_t random_word(Rng& rng) {
  std::uint64_t w = 0;
  for (int chunk = 0; chunk < 4; ++chunk) {
    w = (w << 16) | rng.below(1u << 16);
  }
  return w;
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    // Mix extreme and generic words so carry paths and all-ones lanes in
    // the SIMD popcount see coverage.
    const std::uint64_t pick = rng.below(8);
    w = pick == 0 ? 0ULL : pick == 1 ? ~0ULL : random_word(rng);
  }
  return words;
}

// ---- Word-span backends vs the scalar reference ---------------------------

TEST(KernelsDifferential, CountKernelsMatchScalarOnEverySpanSize) {
  Rng rng(2024);
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    const kernels::Kernels& k = kernels::table_for(isa);
    // Sizes straddle the AVX2 (4-word) and AVX-512 (8-word) tile widths.
    for (const std::size_t n :
         {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 11u, 15u, 16u, 17u, 31u, 32u,
          33u, 63u, 64u, 65u, 100u}) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);
      EXPECT_EQ(k.and_count_words(a.data(), b.data(), n),
                kernels::scalar::and_count_words(a.data(), b.data(), n));
      EXPECT_EQ(k.and_not_count_words(a.data(), b.data(), n),
                kernels::scalar::and_not_count_words(a.data(), b.data(), n));
    }
  }
}

TEST(KernelsDifferential, MutatingKernelsMatchScalarOnEverySpanSize) {
  Rng rng(77);
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    const kernels::Kernels& k = kernels::table_for(isa);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 17u, 33u, 90u}) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);

      std::vector<std::uint64_t> got_and(n, 0xfeedULL);
      std::vector<std::uint64_t> want_and(n, 0xfeedULL);
      k.and_words_into(got_and.data(), a.data(), b.data(), n);
      kernels::scalar::and_words_into(want_and.data(), a.data(), b.data(), n);
      EXPECT_EQ(got_and, want_and);

      // Aliased form (dst == a), the shape BitVec::operator&= uses.
      auto got_alias = a;
      auto want_alias = a;
      k.and_words_into(got_alias.data(), got_alias.data(), b.data(), n);
      kernels::scalar::and_words_into(want_alias.data(), want_alias.data(),
                                      b.data(), n);
      EXPECT_EQ(got_alias, want_alias);
    }
  }
}

// ---- BitVec wrappers ------------------------------------------------------

TEST(KernelsBitVec, WrappersMatchNaiveFormulationUnderEveryIsa) {
  Rng rng(555);
  const kernels::Isa entry = kernels::active().isa;
  for (const kernels::Isa isa : supported_isas()) {
    SCOPED_TRACE(kernels::isa_name(isa));
    ASSERT_TRUE(kernels::select(isa));
    for (int iter = 0; iter < 30; ++iter) {
      const std::size_t n = 1 + rng.below(300);
      BitVec a(n);
      BitVec b(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(0.4)) a.set(i);
        if (rng.chance(0.4)) b.set(i);
      }
      EXPECT_EQ(kernels::and_count(a, b), (a & b).count());
      BitVec diff = a;
      diff.and_not(b);
      EXPECT_EQ(kernels::and_not_count(a, b), diff.count());
    }
  }
  ASSERT_TRUE(kernels::select(entry));
}

TEST(KernelsBitVec, WrappersRejectMismatchedSizes) {
  EXPECT_THROW(kernels::and_count(BitVec(4), BitVec(5)),
               std::invalid_argument);
  EXPECT_THROW(kernels::and_not_count(BitVec(4), BitVec(5)),
               std::invalid_argument);
}

// Constant evaluation must run the scalar reference — the property that
// keeps the static_assert proofs in tests/static/ attached to the new API.
constexpr bool wrappers_work_in_constant_evaluation() {
  const BitVec a = BitVec::from_string("1011011");
  const BitVec b = BitVec::from_string("1101001");
  return kernels::and_count(a, b) == 3 && kernels::and_not_count(a, b) == 2;
}
static_assert(wrappers_work_in_constant_evaluation(),
              "kernels wrappers must run the scalar reference when constant-"
              "evaluated");

// ---- Dispatch plumbing ----------------------------------------------------

TEST(KernelsDispatch, ParseAndNameRoundTrip) {
  for (const kernels::Isa isa :
       {kernels::Isa::kAuto, kernels::Isa::kScalar, kernels::Isa::kAvx2,
        kernels::Isa::kAvx512}) {
    kernels::Isa parsed = kernels::Isa::kAuto;
    ASSERT_TRUE(kernels::parse_isa(kernels::isa_name(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  kernels::Isa parsed = kernels::Isa::kAvx2;
  EXPECT_FALSE(kernels::parse_isa("sse9", &parsed));
  EXPECT_EQ(parsed, kernels::Isa::kAvx2);  // untouched on failure
}

TEST(KernelsDispatch, SelectInstallsSupportedTables) {
  const kernels::Isa entry = kernels::active().isa;
  for (const kernels::Isa isa : supported_isas()) {
    ASSERT_TRUE(kernels::select(isa));
    EXPECT_EQ(kernels::active().isa, isa);
    EXPECT_STREQ(kernels::active().name, kernels::isa_name(isa));
  }
  // kAuto resolves to the best supported tier.
  ASSERT_TRUE(kernels::select(kernels::Isa::kAuto));
  EXPECT_EQ(kernels::active().isa, kernels::detect_best());
  ASSERT_TRUE(kernels::select(entry));
}

TEST(KernelsDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kScalar));
  EXPECT_TRUE(kernels::isa_supported(kernels::Isa::kAuto));
  EXPECT_TRUE(kernels::isa_supported(kernels::detect_best()));
}

}  // namespace
}  // namespace xh
