// make_store(): a store on the heap, for callers that hold it by pointer.
#pragma once

#include <memory>

#include "response/x_matrix.hpp"
#include "storage/x_matrix_store.hpp"

namespace xh {

/// Builds the store over @p xm, which must outlive it.
[[nodiscard]] inline std::unique_ptr<XMatrixStore> make_store(
    const XMatrix& xm) {
  return std::make_unique<XMatrixStore>(xm);
}
std::unique_ptr<XMatrixStore> make_store(XMatrix&&) = delete;  // would dangle

}  // namespace xh
