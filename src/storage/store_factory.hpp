// Placement selection for the X-matrix store (DESIGN.md §12).
//
// Callers name a placement with XmBackend and let make_store() build the
// store. kAuto keeps the rows on the heap (csr) while the estimated CSR
// footprint fits comfortably in RAM, and spills them to a mapped file
// (mmap) past kAutoMmapThresholdBytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"

namespace xh {

/// Canonical spelling: "auto", "csr", "mmap". Matches the backend_name()
/// of the store the value resolves to.
const char* xm_backend_name(XmBackend backend);

/// Parses a canonical spelling; returns false (and leaves @p out alone) for
/// anything else.
[[nodiscard]] bool parse_xm_backend(std::string_view name, XmBackend* out);

/// kAuto spills to the mapped placement once the CSR estimate exceeds this.
inline constexpr std::uint64_t kAutoMmapThresholdBytes = 1ULL << 30;

/// Bytes of the CSR rows for @p rows X-capturing cells over @p num_patterns
/// patterns: the row words plus the two per-row metadata words.
[[nodiscard]] std::uint64_t estimate_csr_bytes(std::size_t rows,
                                               std::size_t num_patterns);

/// The concrete placement @p requested resolves to for a matrix whose CSR
/// rows take @p csr_bytes; non-auto values pass through unchanged.
[[nodiscard]] XmBackend resolve_xm_backend(XmBackend requested,
                                           std::uint64_t csr_bytes);

/// Builds the store over @p xm; its backend_name() is always concrete.
/// Throws std::ios_base::failure when the mmap placement's filesystem
/// refuses.
[[nodiscard]] std::unique_ptr<XMatrixStore> make_store(
    const XMatrix& xm, XmBackend backend = XmBackend::kAuto);

}  // namespace xh
