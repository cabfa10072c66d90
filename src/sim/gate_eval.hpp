// Single-gate four-valued evaluation from precomputed fanin values: the
// scalar reference simulator's gate semantics. The plane simulators call
// evaluate_plane (sim/parallel_sim.hpp), whose every lane must equal it.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace xh {

/// Output of combinational gate @p id given net values indexed by GateId.
/// Must not be called for kInput/kDff (their values are state, not logic).
Lv evaluate_combinational(const Netlist& nl, GateId id,
                          const std::vector<Lv>& values);

}  // namespace xh
