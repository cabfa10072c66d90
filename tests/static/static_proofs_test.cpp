// Compile-time proofs of the GF(2) identities the X-canceling architecture
// rests on (paper §2/§4). Every property here is a static_assert over the
// constexpr BitVec / Gf2Matrix kernels: if a change breaks the algebra, the
// build fails before a single runtime test runs. The TEST bodies re-assert
// the same predicates at runtime only so ctest shows the suite explicitly.
//
// All sample vectors are sized 130 bits on purpose: that spans three 64-bit
// words with a ragged 2-bit tail, so every proof also exercises the
// mask_tail() invariant (bits beyond size() stay zero).
#include <cstddef>

#include <gtest/gtest.h>

#include "gf2/matrix.hpp"
#include "kernels/kernels.hpp"
#include "util/bitvec.hpp"

namespace {

using xh::BitVec;
using xh::Gf2Matrix;

constexpr std::size_t kBits = 130;

/// A deterministic patterned vector: bit i set iff (i*a + b) % m == 0.
constexpr BitVec pattern(std::size_t a, std::size_t b, std::size_t m) {
  BitVec v(kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    if ((i * a + b) % m == 0) v.set(i);
  }
  return v;
}

// ---- Proof 1: XOR self-inverse (a ^ b) ^ b == a ------------------------
// The identity that makes X-canceling reversible: XORing a signature with
// the same combination twice restores it.
constexpr bool xor_self_inverse() {
  const BitVec a = pattern(3, 1, 5);
  const BitVec b = pattern(7, 2, 3);
  return ((a ^ b) ^ b) == a;
}
static_assert(xor_self_inverse(), "GF(2) addition must be self-inverse");

// ---- Proof 2: XOR is its own negation: a ^ a == 0 ----------------------
constexpr bool xor_self_cancels() {
  const BitVec a = pattern(5, 3, 7);
  return (a ^ a).none() && (a ^ a).count() == 0;
}
static_assert(xor_self_cancels(), "x + x = 0 over GF(2)");

// ---- Proof 3: and_count fusion == materialized intersection ------------
// PR 2's fused kernel must agree with the two-step form on ragged-tail
// word patterns; this is the hot primitive of restricted-X accounting.
constexpr bool and_count_fusion() {
  const BitVec a = pattern(3, 0, 4);
  const BitVec b = pattern(5, 1, 3);
  return xh::kernels::and_count(a, b) == (a & b).count();
}
static_assert(and_count_fusion(), "and_count must equal popcount(a & b)");

// ---- Proof 4: and_not_count fusion == materialized difference ----------
constexpr bool and_not_count_fusion() {
  const BitVec a = pattern(3, 0, 4);
  const BitVec b = pattern(5, 1, 3);
  BitVec diff = a;
  diff.and_not(b);
  return xh::kernels::and_not_count(a, b) == diff.count();
}
static_assert(and_not_count_fusion(),
              "and_not_count must equal popcount(a & ~b)");

// ---- Proof 5: inclusion–exclusion over GF(2) ---------------------------
// |a ^ b| = |a| + |b| - 2|a & b| ties the fused kernels to XOR cardinality.
constexpr bool inclusion_exclusion() {
  const BitVec a = pattern(2, 1, 5);
  const BitVec b = pattern(3, 2, 7);
  return (a ^ b).count() + 2 * xh::kernels::and_count(a, b) == a.count() + b.count();
}
static_assert(inclusion_exclusion(),
              "|a^b| + 2|a&b| must equal |a| + |b|");

// ---- Proof 6: subset/intersection duality ------------------------------
constexpr bool subset_duality() {
  const BitVec whole = pattern(2, 0, 2);
  BitVec part = whole;
  part.clear(part.find_first());
  return part.is_subset_of(whole) && xh::kernels::and_not_count(part, whole) == 0 &&
         (part.intersects(whole) == (xh::kernels::and_count(part, whole) > 0));
}
static_assert(subset_duality(),
              "is_subset_of / intersects must match the fused counts");

// ---- Proof 7: tail bits can never leak ---------------------------------
// A full vector has exactly size() set bits even though its storage rounds
// up to whole words; set_word must re-mask the tail.
constexpr bool tail_stays_masked() {
  BitVec v(kBits, true);
  if (v.count() != kBits) return false;
  v.set_word(v.word_count() - 1, ~0ULL);
  return v.count() == kBits && v.find_next(kBits - 1) == kBits - 1;
}
static_assert(tail_stays_masked(),
              "bits beyond size() must stay zero through word writes");

// ---- Proof 8: scan/enumeration consistency -----------------------------
constexpr bool scan_matches_enumeration() {
  const BitVec v = pattern(7, 3, 11);
  std::size_t walked = 0;
  for (std::size_t i = v.find_first(); i < v.size(); i = v.find_next(i + 1)) {
    if (!v.get(i)) return false;
    ++walked;
  }
  return walked == v.count() && v.set_bits().size() == v.count();
}
static_assert(scan_matches_enumeration(),
              "find_first/find_next must visit exactly the set bits");

// ---- Proof 9: elimination combination tracking -------------------------
// The invariant the X-canceling MISR depends on: every reduced row is the
// XOR of the original rows its combination selects. Without this, the
// "X-free combination" the hardware applies would not cancel the X's.
constexpr Gf2Matrix sample_matrix() {
  // 5x4, rank 3: rows 2 = 0^1 and 4 = 0^3 are dependent.
  Gf2Matrix m(5, 4);
  m.set(0, 0);
  m.set(0, 1);          // 1100
  m.set(1, 1);
  m.set(1, 2);          // 0110
  m.set(2, 0);
  m.set(2, 2);          // 1010 = row0 ^ row1
  m.set(3, 3);          // 0001
  m.set(4, 0);
  m.set(4, 1);
  m.set(4, 3);          // 1101 = row0 ^ row3
  return m;
}

constexpr bool combination_tracking_holds() {
  const Gf2Matrix m = sample_matrix();
  const xh::Elimination e = xh::gf2::eliminate(m);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    BitVec acc(m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (e.combination[i].get(r)) acc ^= m.row(r);
    }
    if (!(acc == e.reduced.row(i))) return false;
  }
  return true;
}
static_assert(combination_tracking_holds(),
              "reduced rows must equal the XOR of their tracked originals");

// ---- Proof 10: rank–nullity over the row space -------------------------
constexpr bool rank_nullity_holds() {
  const Gf2Matrix m = sample_matrix();
  const xh::Elimination e = xh::gf2::eliminate(m);
  return e.rank == 3 && e.null_rows().size() == m.rows() - e.rank &&
         m.rank() == e.rank;
}
static_assert(rank_nullity_holds(),
              "null rows must number rows() - rank (left rank–nullity)");

// ---- Proof 11: null-space combinations really cancel every column ------
constexpr bool null_combinations_cancel() {
  const Gf2Matrix m = sample_matrix();
  const auto combos = xh::gf2::x_free_combinations(m);
  if (combos.empty()) return false;
  for (const BitVec& combo : combos) {
    BitVec acc(m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (combo.get(r)) acc ^= m.row(r);
    }
    if (acc.any()) return false;  // an X would survive into the signature
  }
  return true;
}
static_assert(null_combinations_cancel(),
              "every x_free_combination must XOR all columns to zero");

// ---- Proof 12: canonical pivots (full reduction) -----------------------
// Each pivot column contains exactly one 1 across the reduced rows; this
// canonical form is what lets solve() assign pivots independently.
constexpr bool pivots_are_canonical() {
  const Gf2Matrix m = sample_matrix();
  const xh::Elimination e = xh::gf2::eliminate(m);
  for (std::size_t r = 0; r < e.rank; ++r) {
    const std::size_t pivot = e.reduced.row(r).find_first();
    if (pivot >= m.cols()) return false;
    std::size_t ones = 0;
    for (std::size_t rr = 0; rr < m.rows(); ++rr) {
      if (e.reduced.get(rr, pivot)) ++ones;
    }
    if (ones != 1) return false;
  }
  return true;
}
static_assert(pivots_are_canonical(),
              "full reduction must leave each pivot column with a single 1");

// ---- Proof 13: solve() returns a verified solution ---------------------
constexpr bool solve_satisfies_system() {
  const Gf2Matrix m = sample_matrix();
  // b = A · x0 for x0 = 1010 — solvable by construction.
  BitVec x0(4);
  x0.set(0);
  x0.set(2);
  BitVec b(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    b.set(r, xh::kernels::and_count(m.row(r), x0) % 2 == 1);
  }
  const auto x = xh::gf2::solve(m, b);
  if (!x.has_value()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if ((xh::kernels::and_count(m.row(r), *x) % 2 == 1) != b.get(r)) return false;
  }
  return true;
}
static_assert(solve_satisfies_system(), "solve() must satisfy A·x = b");

// ---- Proof 14: solve() detects inconsistency ---------------------------
constexpr bool solve_rejects_inconsistent() {
  // Rows 0 and 1 identical, contradictory right-hand side.
  Gf2Matrix m(2, 3);
  m.set(0, 0);
  m.set(1, 0);
  BitVec b(2);
  b.set(0);  // row0·x = 1 but row1·x = 0 with row0 == row1
  return !xh::gf2::solve(m, b).has_value();
}
static_assert(solve_rejects_inconsistent(),
              "solve() must return nullopt for inconsistent systems");

// ---- Proof 15: a parsed matrix eliminates under constant evaluation ----
// Rows 110 ^ 011 = 101: rank 2, one X-free combination, and the
// homogeneous system A·x = 0 is solvable.
constexpr bool parsed_matrix_eliminates() {
  const Gf2Matrix m = Gf2Matrix::from_strings({"110", "011", "101"});
  return xh::gf2::eliminate(m).rank == 2 &&
         xh::gf2::x_free_combinations(m).size() == 1 &&
         xh::gf2::solve(m, BitVec(3)).has_value();
}
static_assert(parsed_matrix_eliminates(),
              "from_strings + eliminate / x_free_combinations / solve must "
              "run under constant evaluation");

// ---- Proof 16: string round-trip ---------------------------------------
constexpr bool string_round_trip() {
  const BitVec v = pattern(9, 4, 13);
  return BitVec::from_string(v.to_string()) == v;
}
static_assert(string_round_trip(),
              "from_string(to_string(v)) must reproduce v");

// Runtime echoes: ctest visibility for the proofs above. A failure here
// with a passing build would mean constant evaluation and codegen disagree
// — worth its own loud signal.
TEST(StaticProofs, BitVecKernels) {
  EXPECT_TRUE(xor_self_inverse());
  EXPECT_TRUE(xor_self_cancels());
  EXPECT_TRUE(and_count_fusion());
  EXPECT_TRUE(and_not_count_fusion());
  EXPECT_TRUE(inclusion_exclusion());
  EXPECT_TRUE(subset_duality());
  EXPECT_TRUE(tail_stays_masked());
  EXPECT_TRUE(scan_matches_enumeration());
}

TEST(StaticProofs, EliminationInvariants) {
  EXPECT_TRUE(combination_tracking_holds());
  EXPECT_TRUE(rank_nullity_holds());
  EXPECT_TRUE(null_combinations_cancel());
  EXPECT_TRUE(pivots_are_canonical());
  EXPECT_TRUE(solve_satisfies_system());
  EXPECT_TRUE(solve_rejects_inconsistent());
  EXPECT_TRUE(parsed_matrix_eliminates());
  EXPECT_TRUE(string_round_trip());
}

}  // namespace
