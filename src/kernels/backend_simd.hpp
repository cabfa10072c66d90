// Declarations of the SIMD kernel backends (definitions in backend_avx2.cpp
// and backend_avx512.cpp, compiled with per-function target attributes so no
// global -m flags are needed and the binary stays runnable on plain x86-64).
//
// Private to the kernels layer: everything else reaches these through the
// dispatched table in kernels.hpp (tools/lint/layers.txt marks
// src/kernels/backend_* accordingly). Calling one of these on a CPU that
// lacks the corresponding ISA is undefined behaviour (SIGILL) — the
// dispatcher guards every entry with __builtin_cpu_supports.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xh::kernels {

#if defined(__x86_64__) || defined(_M_X64)
#define XH_KERNELS_HAVE_X86 1
#else
#define XH_KERNELS_HAVE_X86 0
#endif

#if XH_KERNELS_HAVE_X86

namespace avx2 {
std::size_t and_count_words(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n);
std::size_t and_not_count_words(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n);
void and_words_into(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n);
}  // namespace avx2

namespace avx512 {
std::size_t and_count_words(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t n);
std::size_t and_not_count_words(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n);
void and_words_into(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n);
}  // namespace avx512

#endif  // XH_KERNELS_HAVE_X86

}  // namespace xh::kernels
