// Test-pattern partitioning (paper Section 4, Algorithm 1).
//
// Greedy binary partitioning of the pattern set driven by X inter-correlation:
// each round picks, over all current partitions, the largest group of scan
// cells that share the same X count inside one partition (the strongest
// inter-correlation signal), splits that partition on one representative cell
// (patterns where the cell is X vs. is not), and keeps the split only while
// the hybrid control-bit total keeps decreasing:
//
//   bits(i) = L·C·#partitions(i) + m·q·X_leaked(i)/(m−q)
//   continue while bits(i) − bits(i+1) > 0
//
// Masks are derived per partition with the no-observable-loss rule, so the
// trade-off is purely "more masks (more masking control data)" vs. "fewer X's
// into the X-canceling MISR (less canceling control data + fewer halts)".
//
// The configuration and result types live in engine/partition_types.hpp
// (shared with the incremental PartitionEngine) and are re-exported here.
#pragma once

#include "engine/partition_types.hpp"
#include "response/x_matrix.hpp"

namespace xh {

/// Runs Algorithm 1 on an X-location matrix. Since the engine restructuring
/// this is a thin wrapper over PartitionEngine (probe the matrix through an
/// XMatrixStore, run rounds incrementally); the result is bit-identical to
/// partition_patterns_reference() for every configuration and seed — the
/// equivalence suite in tests/engine/ enforces it.
[[nodiscard]] PartitionResult partition_patterns(const XMatrix& xm,
                                                 const PartitionerConfig& cfg);

/// The seed implementation: re-analyzes every X cell of the whole design on
/// every probe and clones the partition vector per round. O(rounds ×
/// total_x_cells × pattern_words) against the engine's O(rounds ×
/// victim_cells × pattern_words). Retained verbatim as the oracle for the
/// equivalence suite and the baseline bench_partitioner measures against;
/// not for production use.
[[nodiscard]] PartitionResult partition_patterns_reference(
    const XMatrix& xm, const PartitionerConfig& cfg);

}  // namespace xh
