#include "core/partitioner.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "engine/partition_engine.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {

PartitionResult partition_patterns(const XMatrix& xm,
                                   const PartitionerConfig& cfg) {
  cfg.misr.validate();
  XH_REQUIRE(xm.num_patterns() > 0, "X matrix has no patterns");
  const XMatrixStore store(xm);
  PartitionEngine engine(store, cfg);
  return engine.run();
}

// ---------------------------------------------------------------------------
// Seed implementation (oracle). Everything below is the pre-engine
// partitioner, kept byte-for-byte in behavior: the equivalence suite pins
// the engine to it, and bench_partitioner reports the speedup against it.
// ---------------------------------------------------------------------------

namespace {

/// Working state for one pattern group, with cached analysis.
struct Part {
  BitVec patterns;
  std::size_t span = 0;          // patterns.count()
  std::size_t masked_cells = 0;  // cells X in every pattern of the group
  // Best candidate group of same-X-count cells (0 < count < span):
  std::size_t group_size = 0;
  std::size_t group_xcount = 0;
  std::vector<std::size_t> group_cells;

  std::size_t masked_x() const { return masked_cells * span; }
  /// Ranking key: the X volume the group could surrender to masking if it is
  /// truly inter-correlated (size × count). On every example the paper
  /// works through this picks the same group as "largest number of scan
  /// cells with the same number of X's", and unlike the raw cell count it is
  /// not fooled by swarms of weakly-correlated low-count cells at industrial
  /// scale (see DESIGN.md §6).
  std::size_t group_score() const { return group_size * group_xcount; }
  bool splittable(bool allow_singletons) const {
    return group_size >= (allow_singletons ? 1u : 2u);
  }
};

/// Scans the X cells once to derive the mask size and the best candidate
/// group of the partition.
///
/// The paper groups cells purely by equal X count and ASSUMES equal counts
/// imply shared patterns ("there will be a chance that they are handled
/// together"). At industrial scale coincidental count ties between unrelated
/// cells break that assumption, so candidate groups here are keyed by
/// (count, pattern-set-within-partition): cells in one group provably share
/// their X patterns inside this partition, making the group's masking gain
/// (size × count) exact instead of hoped-for. On every example in the paper
/// the two rules select identical groups.
Part analyze(const XMatrix& xm, std::span<const std::uint64_t> x_cells,
             BitVec patterns) {
  Part part;
  part.span = patterns.count();
  part.patterns = std::move(patterns);
  XH_ASSERT(part.span > 0, "empty partition");

  const auto set_hash = [&](const BitVec& pats) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t w = 0; w < pats.word_count(); ++w) {
      const std::uint64_t masked_word =
          pats.word(w) & part.patterns.word(w);
      h ^= masked_word;
      h *= 0x100000001b3ULL;
    }
    return h;
  };

  // (count, intersection hash) → cells provably sharing their in-partition
  // X patterns. count == span cells are exactly the maskable ones.
  std::map<std::pair<std::size_t, std::uint64_t>,
           std::vector<std::size_t>>
      groups;
  for (const std::size_t cell : x_cells) {
    const BitVec pats = xm.patterns_of(cell);
    const std::size_t count = xm.x_count_in(cell, part.patterns);
    if (count == part.span) {
      ++part.masked_cells;
    } else if (count > 0) {
      groups[{count, set_hash(pats)}].push_back(cell);
    }
  }
  for (auto& [key, cells] : groups) {
    // Rank by the (now exact) maskable X volume; break ties toward more
    // cells, then the higher X count.
    const std::size_t count = key.first;
    const std::size_t score = cells.size() * count;
    const bool better =
        score > part.group_score() ||
        (score == part.group_score() &&
         (cells.size() > part.group_size ||
          (cells.size() == part.group_size && count > part.group_xcount)));
    if (better) {
      part.group_size = cells.size();
      part.group_xcount = count;
      part.group_cells = std::move(cells);
    }
  }
  return part;
}

double state_bits(const XMatrix& xm, const std::vector<Part>& parts,
                  const MisrConfig& misr) {
  std::uint64_t masked = 0;
  for (const Part& p : parts) masked += p.masked_x();
  const std::uint64_t leaked = xm.total_x() - masked;
  return hybrid_bits(xm.geometry(), parts.size(), misr, leaked);
}

PartitionRound snapshot(std::size_t round, const XMatrix& xm,
                        const std::vector<Part>& parts,
                        const MisrConfig& misr) {
  PartitionRound r;
  r.round = round;
  r.num_partitions = parts.size();
  for (const Part& p : parts) r.masked_x += p.masked_x();
  r.leaked_x = xm.total_x() - r.masked_x;
  r.total_bits = state_bits(xm, parts, misr);
  return r;
}

}  // namespace

PartitionResult partition_patterns_reference(const XMatrix& xm,
                                             const PartitionerConfig& cfg) {
  cfg.misr.validate();
  XH_REQUIRE(xm.num_patterns() > 0, "X matrix has no patterns");

  const std::span<const std::uint64_t> x_cells = xm.x_cells();

  Rng rng(cfg.seed);
  std::vector<Part> parts;
  parts.push_back(analyze(xm, x_cells, BitVec(xm.num_patterns(), true)));

  PartitionResult result;
  result.history.push_back(snapshot(0, xm, parts, cfg.misr));

  std::size_t round = 0;
  while (round < cfg.max_rounds) {
    // Candidate = partition with the strongest same-count group.
    std::size_t best = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].splittable(cfg.allow_singleton_groups)) continue;
      if (best == parts.size() ||
          parts[i].group_score() > parts[best].group_score()) {
        best = i;
      }
    }
    if (best == parts.size()) break;  // nothing left to split

    const Part& victim = parts[best];
    const std::size_t pick =
        cfg.cell_choice == SplitCellChoice::kRandom
            ? static_cast<std::size_t>(rng.below(victim.group_cells.size()))
            : 0;  // group_cells is ascending (x_cells is sorted)
    const std::size_t split_cell = victim.group_cells[pick];

    const BitVec cell_pats = xm.patterns_of(split_cell);
    BitVec with_x = victim.patterns & cell_pats;
    BitVec without_x = victim.patterns;
    without_x.and_not(cell_pats);
    XH_ASSERT(with_x.any() && without_x.any(),
              "split cell must divide the partition");

    std::vector<Part> next = parts;
    next.erase(next.begin() + static_cast<std::ptrdiff_t>(best));
    next.push_back(analyze(xm, x_cells, std::move(with_x)));
    next.push_back(analyze(xm, x_cells, std::move(without_x)));

    PartitionRound probe = snapshot(round + 1, xm, next, cfg.misr);
    probe.split_cell = split_cell;

    if (cfg.stop_on_cost_increase &&
        probe.total_bits >= result.history.back().total_bits) {
      probe.accepted = false;
      result.history.push_back(probe);
      break;
    }
    parts = std::move(next);
    result.history.push_back(probe);
    ++round;
  }

  // Materialize the final state.
  result.partitions.reserve(parts.size());
  result.masks.reserve(parts.size());
  std::uint64_t masked = 0;
  for (Part& p : parts) {
    BitVec mask = partition_mask(xm, p.patterns);
    XH_ASSERT(mask.count() == p.masked_cells, "mask/analysis disagreement");
    masked += p.masked_x();
    result.partitions.push_back(std::move(p.patterns));
    result.masks.push_back(std::move(mask));
  }
  result.masked_x = masked;
  result.leaked_x = xm.total_x() - masked;
  result.masking_bits =
      static_cast<double>(xm.geometry().num_cells()) *
      static_cast<double>(result.partitions.size());
  result.canceling_bits = x_canceling_only_bits(cfg.misr, result.leaked_x);
  result.total_bits = result.masking_bits + result.canceling_bits;
  return result;
}

}  // namespace xh
