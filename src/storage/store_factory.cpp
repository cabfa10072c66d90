#include "storage/store_factory.hpp"

namespace xh {

const char* xm_backend_name(XmBackend backend) {
  switch (backend) {
    case XmBackend::kAuto: return "auto";
    case XmBackend::kCsr: return "csr";
    case XmBackend::kMmap: return "mmap";
  }
  return "unknown";
}

bool parse_xm_backend(std::string_view name, XmBackend* out) {
  for (const XmBackend backend :
       {XmBackend::kAuto, XmBackend::kCsr, XmBackend::kMmap}) {
    if (name == xm_backend_name(backend)) {
      *out = backend;
      return true;
    }
  }
  return false;
}

std::uint64_t estimate_csr_bytes(std::size_t rows, std::size_t num_patterns) {
  const std::uint64_t words_per_row = (num_patterns + 63) / 64;
  return static_cast<std::uint64_t>(rows) * (words_per_row + 2) *
         sizeof(std::uint64_t);
}

XmBackend resolve_xm_backend(XmBackend requested, std::uint64_t csr_bytes) {
  if (requested != XmBackend::kAuto) return requested;
  return csr_bytes > kAutoMmapThresholdBytes ? XmBackend::kMmap
                                             : XmBackend::kCsr;
}

std::unique_ptr<XMatrixStore> make_store(const XMatrix& xm,
                                         XmBackend backend) {
  return std::make_unique<XMatrixStore>(xm, backend);
}

}  // namespace xh
