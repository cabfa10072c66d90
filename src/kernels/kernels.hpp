// Runtime-dispatched kernel layer: one capability table for the word loops
// the hot paths run (fused and_count / and_not_count over word spans, and
// the word-wise intersection), selected once per process.
//
// Design (DESIGN.md §14):
//   - backend_scalar.hpp is the semantic reference. It is constexpr, and
//     every public wrapper here branches on std::is_constant_evaluated():
//     constant evaluation always executes the scalar reference, so the
//     static_assert proofs in tests/static/ keep checking the exact
//     semantics every other backend must reproduce.
//   - backend_avx2.cpp / backend_avx512.cpp are explicit SIMD tilings,
//     reachable only through the dispatched table. Selection is by runtime
//     CPUID probe (__builtin_cpu_supports), overridable with the XH_ISA
//     environment variable or kernels::select() (the CLI's --isa flag).
//
// Every dispatched operation is exact integer arithmetic; cross-backend
// bit-identity is enforced by tests/kernels/ and by the bench_partitioner
// smoke gate. GF(2) elimination is not here: it is gf2::eliminate in
// gf2/matrix.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "kernels/backend_scalar.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"

namespace xh {

class Trace;

namespace kernels {

/// Instruction-set tiers the dispatcher can select between. kAuto resolves
/// to the best tier the running CPU supports; the numeric values are stable
/// (they appear in telemetry as the kernel.isa gauge and in checkpoints).
enum class Isa : int {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// One backend's entry points. All functions operate on spans of 64-bit
/// words; the BitVec-level wrappers below add the size checks and the
/// constant-evaluation branch.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  std::size_t (*and_count_words)(const std::uint64_t*, const std::uint64_t*,
                                 std::size_t) = nullptr;
  std::size_t (*and_not_count_words)(const std::uint64_t*,
                                     const std::uint64_t*,
                                     std::size_t) = nullptr;
  void (*and_words_into)(std::uint64_t*, const std::uint64_t*,
                         const std::uint64_t*, std::size_t) = nullptr;
};

/// Canonical lowercase name ("auto", "scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parses an isa_name() string. Returns false (leaving *out untouched) for
/// anything else.
bool parse_isa(std::string_view name, Isa* out);

/// True when the running CPU can execute @p isa (kAuto and kScalar always
/// can).
bool isa_supported(Isa isa);

/// Best tier the running CPU supports: avx512 > avx2 > scalar.
Isa detect_best();

/// The table for @p isa; kAuto resolves through detect_best(). Requires
/// isa_supported(isa) — asking for an unsupported tier is a checked error.
const Kernels& table_for(Isa isa);

/// Process-wide active table. First use resolves the XH_ISA environment
/// override (invalid or unsupported values silently fall back to kAuto —
/// the CLI re-validates the variable to warn); thereafter select() is the
/// only way to change it.
const Kernels& active();

/// Installs @p isa as the active table. Returns false (keeping the current
/// table) when the CPU does not support it. kAuto re-runs detection.
bool select(Isa isa);

// ---- BitVec-level wrappers ------------------------------------------------
//
// Constant evaluation runs the scalar reference (so these are usable inside
// static_asserts); runtime goes through the dispatched table.

/// popcount(a & b) without materializing the intersection. Requires
/// a.size() == b.size().
constexpr std::size_t and_count(const BitVec& a, const BitVec& b) {
  XH_REQUIRE(a.size() == b.size(), "BitVec size mismatch in and_count");
  if (std::is_constant_evaluated()) {
    return scalar::and_count_words(a.word_data(), b.word_data(),
                                   a.word_count());
  }
  return active().and_count_words(a.word_data(), b.word_data(),
                                  a.word_count());
}

/// popcount(a & ~b) without materializing the difference. Requires
/// a.size() == b.size().
constexpr std::size_t and_not_count(const BitVec& a, const BitVec& b) {
  XH_REQUIRE(a.size() == b.size(), "BitVec size mismatch in and_not_count");
  if (std::is_constant_evaluated()) {
    return scalar::and_not_count_words(a.word_data(), b.word_data(),
                                       a.word_count());
  }
  return active().and_not_count_words(a.word_data(), b.word_data(),
                                      a.word_count());
}

// ---- Telemetry ------------------------------------------------------------

/// Exports kernel.* instruments into @p trace (no-op on nullptr): the
/// kernel.isa gauge (numeric Isa of the active table).
void export_kernel_telemetry(Trace* trace);

}  // namespace kernels
}  // namespace xh
