// Shared types of the pattern-partitioning search (paper Section 4).
//
// These used to live in core/partitioner.hpp; they moved below the engine
// layer so both the seed-faithful reference implementation (core) and the
// incremental PartitionEngine (engine) speak the same configuration and
// result vocabulary. core/partitioner.hpp re-exports them, so existing
// includers are unaffected.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "misr/x_cancel.hpp"
#include "util/bitvec.hpp"

namespace xh {

/// How the representative split cell is chosen inside the winning same-count
/// group. The paper picks randomly; the default here is deterministic.
enum class SplitCellChoice {
  kLowestIndex,
  kRandom,
};

struct PartitionerConfig {
  MisrConfig misr;
  /// Stop as soon as a round fails to reduce total control bits (the paper's
  /// cost function). Disable to run to exhaustion (ablation studies).
  bool stop_on_cost_increase = true;
  /// Hard cap on accepted rounds (ablation: force exactly k splits).
  std::size_t max_rounds = std::numeric_limits<std::size_t>::max();
  /// Also split on groups of a single cell when no >=2-cell group exists.
  /// Off by default: the paper stops partitioning such partitions.
  bool allow_singleton_groups = false;
  SplitCellChoice cell_choice = SplitCellChoice::kLowestIndex;
  std::uint64_t seed = 1;  // used when cell_choice == kRandom
};

/// One accepted (or rejected-final) round in the search.
struct PartitionRound {
  std::size_t round = 0;            // 0 = before any split
  std::size_t num_partitions = 0;
  std::uint64_t masked_x = 0;
  std::uint64_t leaked_x = 0;
  double total_bits = 0.0;          // hybrid closed form at this state
  std::size_t split_cell = 0;       // cell split to REACH this state (round>0)
  bool accepted = true;             // false only for a final rejected probe
};

struct PartitionResult {
  /// Final disjoint pattern groups covering all patterns.
  std::vector<BitVec> partitions;
  /// Safe mask per partition (same indexing).
  std::vector<BitVec> masks;
  std::uint64_t masked_x = 0;
  std::uint64_t leaked_x = 0;
  /// Hybrid control-bit total for the final state (real-valued).
  double total_bits = 0.0;
  double masking_bits = 0.0;
  double canceling_bits = 0.0;
  /// Cost trajectory: entry 0 is the unsplit state; a trailing entry with
  /// accepted == false records the probe that triggered the stop.
  std::vector<PartitionRound> history;
  /// True when the search was stopped by a cancellation/deadline token
  /// before reaching its natural stop: the result is the best-so-far
  /// prefix — still a valid, coverage-safe partition — not the optimum.
  bool interrupted = false;

  std::size_t num_partitions() const { return partitions.size(); }
};

/// Resumable engine state captured at a round boundary: exactly what is
/// not recomputable from the frozen XMatrixStore. The per-partition group
/// analyses are deliberately NOT stored — restore re-derives them with one
/// full sweep per partition, which analyze() makes bit-identical to the
/// incremental path for any candidate superset (rows with no X in the
/// partition contribute nothing). See service/checkpoint.hpp for the
/// serialized form.
struct EngineSnapshot {
  std::size_t round = 0;  // accepted rounds so far
  bool done = false;      // natural stop already reached
  std::array<std::uint64_t, 4> rng_state{};
  /// Pattern set per partition, in engine order (split order matters: the
  /// best-partition scan ties break on position).
  std::vector<BitVec> partitions;
  std::vector<PartitionRound> history;
};

}  // namespace xh
