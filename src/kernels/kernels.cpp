// Kernel dispatcher: CPUID probing, the per-ISA capability tables, the
// process-wide active-table slot, and the kernel.* telemetry export.
#include "kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "kernels/backend_simd.hpp"
#include "obs/trace.hpp"

namespace xh::kernels {
namespace {

constexpr Kernels kScalarTable = {
    Isa::kScalar,
    "scalar",
    &scalar::and_count_words,
    &scalar::and_not_count_words,
    &scalar::and_words_into,
};

#if XH_KERNELS_HAVE_X86
constexpr Kernels kAvx2Table = {
    Isa::kAvx2,
    "avx2",
    &avx2::and_count_words,
    &avx2::and_not_count_words,
    &avx2::and_words_into,
};

constexpr Kernels kAvx512Table = {
    Isa::kAvx512,
    "avx512",
    &avx512::and_count_words,
    &avx512::and_not_count_words,
    &avx512::and_words_into,
};
#endif  // XH_KERNELS_HAVE_X86

/// First-use default: honor XH_ISA when it names a supported tier, fall
/// back to auto-detection otherwise. The fallback is silent by design —
/// this can run from any thread of any embedder, so surfacing the
/// diagnostic is the CLI's job (it re-validates XH_ISA, the same split the
/// XH_XM_BACKEND override uses in service/job_runner.cpp).
Isa initial_isa() {
  if (const char* env = std::getenv("XH_ISA")) {
    Isa requested = Isa::kAuto;
    if (parse_isa(env, &requested) && isa_supported(requested)) {
      return requested;
    }
  }
  return Isa::kAuto;
}

std::atomic<const Kernels*>& active_slot() {
  static std::atomic<const Kernels*> slot{&table_for(initial_isa())};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAuto: return "auto";
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

bool parse_isa(std::string_view name, Isa* out) {
  if (name == "auto") {
    *out = Isa::kAuto;
  } else if (name == "scalar") {
    *out = Isa::kScalar;
  } else if (name == "avx2") {
    *out = Isa::kAvx2;
  } else if (name == "avx512") {
    *out = Isa::kAvx512;
  } else {
    return false;
  }
  return true;
}

// The CPUID probes are selected at function granularity (not with #if
// inside a shared body) so each definition is a complete single-exit
// function — the lint CFG self-scan sees both preprocessor arms.
#if XH_KERNELS_HAVE_X86

namespace {
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}
}  // namespace

#else

namespace {
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }
}  // namespace

#endif

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kAuto:
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_has_avx2();
    case Isa::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

Isa detect_best() {
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

const Kernels& table_for(Isa isa) {
  if (isa == Isa::kAuto) isa = detect_best();
  XH_REQUIRE(isa_supported(isa), "requested kernel ISA not supported here");
#if XH_KERNELS_HAVE_X86
  switch (isa) {
    case Isa::kAvx2: return kAvx2Table;
    case Isa::kAvx512: return kAvx512Table;
    case Isa::kAuto:
    case Isa::kScalar:
      break;
  }
#endif
  return kScalarTable;
}

const Kernels& active() {
  return *active_slot().load(std::memory_order_acquire);
}

bool select(Isa isa) {
  if (!isa_supported(isa)) return false;
  active_slot().store(&table_for(isa), std::memory_order_release);
  return true;
}

void export_kernel_telemetry(Trace* trace) {
  if (trace == nullptr) return;
  obs_gauge(trace, "kernel.isa",
            static_cast<double>(static_cast<int>(active().isa)));
}

}  // namespace xh::kernels
