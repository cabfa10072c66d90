// Chain-level X-blocking baseline (after Wang et al. [3]'s "unknown
// blocking" idea): instead of one mask bit per scan CELL per pattern, spend
// one mask bit per scan CHAIN per pattern and blank whole chains that carry
// any X. Control data shrinks by a factor of the chain length, but every
// deterministic bit sharing a chain with an X is sacrificed — the same
// observability-for-control-data trade the superset method makes, at a
// coarser granularity. Useful as the "cheap but lossy" corner in ablations.
#pragma once

#include <cstdint>

#include "response/x_matrix.hpp"

namespace xh {

struct [[nodiscard]] ChainMaskingResult {
  /// One bit per chain per pattern.
  std::uint64_t control_bits = 0;
  /// (pattern, chain) pairs masked.
  std::uint64_t masked_chains = 0;
  /// X's removed (every X sits in some masked chain, so this equals the
  /// total X count).
  std::uint64_t masked_x = 0;
  /// Deterministic bits destroyed alongside them.
  std::uint64_t lost_observations = 0;
};

ChainMaskingResult chain_masking(const XMatrix& xm);

}  // namespace xh
