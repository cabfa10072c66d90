// Incremental pattern-partitioning engine (paper Section 4, Algorithm 1).
//
// Semantically identical to the seed partitioner retained in
// core/partitioner.cpp (partition_patterns_reference) — same greedy split
// selection, same cost-function stop, bit-identical PartitionResult for any
// configuration and seed — but restructured around the observation that a
// split only changes ONE partition:
//
//   * the X matrix is frozen into an XMatrixStore (storage/ layer: CSR
//     rows of contiguous words with precomputed popcounts instead of
//     unordered_map lookups);
//   * each partition keeps the list of store rows that have at least one X
//     inside it, so splitting a partition re-analyzes only those rows —
//     O(victim cells), not O(all X cells) as in the seed;
//   * a probe is costed from running totals (no clone of the partition
//     vector); a rejected probe therefore costs zero copies and leaves the
//     engine state untouched;
//   * the per-round cell analysis optionally fans out across a ThreadPool.
//     Chunk results are merged in deterministic chunk order, so the result
//     is bit-identical for any pool size (or none).
//
// Per-round complexity: seed O(total_x_cells × pattern_words) per probe,
// engine O(victim_cells × spanned_words), where a child's probes read only
// the words from its first to its last nonzero pattern word — the victim
// shrinks geometrically as the search deepens, which is where the
// production-scale speedup comes from (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/partition_types.hpp"
#include "engine/pipeline_context.hpp"
#include "obs/trace.hpp"
#include "storage/x_matrix_store.hpp"
#include "response/x_matrix.hpp"
#include "util/bitvec.hpp"
#include "util/cancel_token.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace xh {

class PartitionEngine {
 public:
  /// Binds the engine to a frozen store (not owned; must outlive the
  /// engine) and analyzes the unsplit root partition. Throws std::invalid_argument
  /// on invalid configuration, like the seed partitioner. The optional
  /// trace receives engine.* counters; nullptr means no instrumentation.
  /// The optional cancel token (not owned) is polled at round boundaries.
  PartitionEngine(const XMatrixStore& store, const PartitionerConfig& cfg,
                  ThreadPool* pool = nullptr, Trace* trace = nullptr,
                  const CancelToken* cancel = nullptr);
  PartitionEngine(const XMatrixStore& store, PipelineContext& ctx)
      : PartitionEngine(store, ctx.partitioner, ctx.pool(), ctx.trace(),
                        ctx.cancel()) {}

  /// Restores an engine from a round-boundary snapshot taken against an
  /// identical store and configuration. Each stored partition is
  /// re-analyzed with one full sweep, which analyze() makes bit-identical
  /// to the incremental state the saved engine held — so stepping the
  /// restored engine reproduces the uninterrupted run exactly. Throws
  /// std::invalid_argument when the snapshot does not describe a disjoint
  /// cover of the store's patterns.
  PartitionEngine(const XMatrixStore& store, const PartitionerConfig& cfg,
                  const EngineSnapshot& snapshot, ThreadPool* pool = nullptr,
                  Trace* trace = nullptr, const CancelToken* cancel = nullptr);

  /// Outcome of one greedy round.
  enum class [[nodiscard]] StepOutcome {
    kSplit,      // probe accepted: one partition replaced by its two halves
    kRejected,   // probe cost >= current cost: recorded, state untouched
    kExhausted,  // no splittable group left, or max_rounds reached
    kCancelled,  // stop token fired before the round ran: state untouched
  };

  /// Runs one round: pick the strongest group, probe the split, accept or
  /// reject. After kRejected or kExhausted the engine is finished and
  /// further calls return kExhausted without consuming randomness.
  /// kCancelled does NOT finish the engine: the round was never attempted,
  /// so a snapshot of this state can resume and complete the search.
  StepOutcome step();

  /// Runs rounds to completion (Algorithm 1) and returns the materialized
  /// result — bit-identical to partition_patterns_reference().
  PartitionResult run();

  /// Materializes the current state (partitions, masks, accounting,
  /// history). Callable at any point; does not mutate the engine. Its
  /// count_in probes are added to the store's accounting.
  PartitionResult materialize() const;

  /// Captures the resumable state at the current round boundary. The
  /// restore constructor round-trips this exactly; serialization lives in
  /// service/checkpoint.hpp.
  EngineSnapshot snapshot() const;

  // Introspection (tests and step-wise drivers).
  std::size_t num_partitions() const { return parts_.size(); }
  const BitVec& partition_patterns_of(std::size_t i) const {
    return parts_[i].patterns;
  }
  std::uint64_t masked_x() const { return masked_total_; }
  const std::vector<PartitionRound>& history() const { return history_; }
  bool finished() const { return done_; }
  /// True once a step() observed the cancel token fired.
  bool interrupted() const { return interrupted_; }

 private:
  /// Working state of one pattern group: the cached analysis of the seed
  /// partitioner's Part, plus the member rows that make re-analysis local.
  struct Part {
    BitVec patterns;
    std::size_t span = 0;          // patterns.count()
    std::size_t masked_cells = 0;  // cells X in every pattern of the group
    // Best candidate group of same-(count, pattern-set) cells:
    std::size_t group_size = 0;
    std::size_t group_xcount = 0;
    std::vector<std::size_t> group_cells;  // cell ids, ascending
    /// Store rows with at least one X inside this partition, ascending.
    /// A child partition's members are always a subset of its parent's.
    std::vector<std::uint32_t> members;

    std::uint64_t masked_x() const {
      return static_cast<std::uint64_t>(masked_cells) * span;
    }
    std::size_t group_score() const { return group_size * group_xcount; }
    bool splittable(bool allow_singletons) const {
      return group_size >= (allow_singletons ? 1u : 2u);
    }
  };

  /// Full analysis of one pattern group, restricted to @p candidates (rows
  /// that could possibly have an X in it). Fans out on the pool when
  /// profitable; serial and parallel paths produce identical Parts. Adds
  /// its probes to the store's accounting once, after the chunks join.
  Part analyze(BitVec patterns, const std::vector<std::uint32_t>& candidates);

  PartitionRound snapshot_round(std::size_t round, std::size_t num_parts,
                                std::uint64_t masked) const;

  const XMatrixStore& store_;
  PartitionerConfig cfg_;
  ThreadPool* pool_ = nullptr;
  Trace* trace_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  Rng rng_;
  std::vector<Part> parts_;
  std::uint64_t masked_total_ = 0;
  std::vector<PartitionRound> history_;
  std::size_t round_ = 0;  // accepted rounds so far
  bool done_ = false;
  bool interrupted_ = false;  // a step() saw the cancel token fired
};

/// Convenience: store + engine run in one call, routed through a context.
[[nodiscard]] PartitionResult run_partitioning(const XMatrix& xm,
                                               PipelineContext& ctx);

}  // namespace xh
