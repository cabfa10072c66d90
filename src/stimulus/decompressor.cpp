#include "stimulus/decompressor.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {

StimulusDecompressor::StimulusDecompressor(FeedbackPolynomial poly,
                                           ScanGeometry geometry,
                                           std::uint64_t phase_seed,
                                           std::size_t taps_per_chain)
    : poly_(std::move(poly)), geometry_(geometry) {
  XH_REQUIRE(geometry.num_cells() > 0, "geometry must have cells");
  XH_REQUIRE(taps_per_chain >= 1 && taps_per_chain <= poly_.degree(),
             "taps_per_chain must be in [1, seed_bits]");

  // Phase shifter: distinct random LFSR stages per chain.
  Rng rng(phase_seed);
  phase_taps_.reserve(geometry.num_chains);
  for (std::size_t chain = 0; chain < geometry.num_chains; ++chain) {
    phase_taps_.push_back(
        rng.sample_without_replacement(poly_.degree(), taps_per_chain));
  }

  // Symbolic LFSR run: dependency of each state bit on the seed, advanced
  // one cycle per scan position; the chain-c pin value at cycle t is the
  // XOR of that chain's taps — recorded as the dependency of cell (c, t).
  const std::size_t m = poly_.degree();
  std::vector<BitVec> state(m, BitVec(m));
  for (std::size_t i = 0; i < m; ++i) state[i].set(i);  // identity = seed

  cell_dep_.assign(geometry.num_cells(), BitVec(m));
  for (std::size_t t = 0; t < geometry.chain_length; ++t) {
    for (std::size_t chain = 0; chain < geometry.num_chains; ++chain) {
      BitVec dep(m);
      for (const std::size_t tap : phase_taps_[chain]) dep ^= state[tap];
      cell_dep_[geometry.cell_index(chain, t)] = std::move(dep);
    }
    // Advance the LFSR symbolically (same structure as Lfsr::next_state).
    std::vector<BitVec> next(m, BitVec(m));
    const BitVec feedback = state[m - 1];
    next[0] = feedback;
    for (std::size_t i = 1; i < m; ++i) next[i] = std::move(state[i - 1]);
    for (const std::size_t tap : poly_.taps()) next[tap] ^= feedback;
    state = std::move(next);
  }
}

BitVec StimulusDecompressor::expand(const BitVec& seed) const {
  XH_REQUIRE(seed.size() == seed_bits(), "seed width mismatch");
  BitVec load(geometry_.num_cells());
  for (std::size_t cell = 0; cell < cell_dep_.size(); ++cell) {
    load.set(cell, (cell_dep_[cell] & seed).count() % 2 != 0);
  }
  return load;
}

const BitVec& StimulusDecompressor::cell_dependency(std::size_t cell) const {
  XH_REQUIRE(cell < cell_dep_.size(), "cell index out of range");
  return cell_dep_[cell];
}

std::optional<BitVec> StimulusDecompressor::solve_seed(
    const BitVec& care_mask, const BitVec& care_values) const {
  XH_REQUIRE(care_mask.size() == geometry_.num_cells(),
             "care mask width mismatch");
  XH_REQUIRE(care_values.size() == geometry_.num_cells(),
             "care values width mismatch");
  Gf2Matrix system;
  BitVec rhs(care_mask.count());
  std::size_t row = 0;
  for (const std::size_t cell : care_mask.set_bits()) {
    system.append_row(cell_dep_[cell]);
    rhs.set(row++, care_values.get(cell));
  }
  if (system.rows() == 0) return BitVec(seed_bits());  // all don't-care
  return gf2::solve(system, rhs);
}

CompressionResult compress_patterns(
    const StimulusDecompressor& decomp,
    const std::vector<TestPattern>& patterns) {
  const ScanGeometry& geo = decomp.geometry();
  CompressionResult result;
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    const TestPattern& p = patterns[pi];
    XH_REQUIRE(p.scan_in.size() == geo.num_cells(),
               "pattern scan width mismatch");
    BitVec mask(geo.num_cells());
    BitVec values(geo.num_cells());
    for (std::size_t cell = 0; cell < geo.num_cells(); ++cell) {
      if (is_definite(p.scan_in[cell])) {
        mask.set(cell);
        values.set(cell, p.scan_in[cell] == Lv::k1);
      }
    }
    const auto seed = decomp.solve_seed(mask, values);
    if (!seed) {
      result.failed_patterns.push_back(pi);
      continue;
    }
    result.care_bits += mask.count();
    result.raw_scan_bits += geo.num_cells();
    result.seed_data_bits += decomp.seed_bits();
    CompressedPattern cp;
    cp.seed = *seed;
    cp.pi = p.pi;
    for (auto& v : cp.pi) {
      if (!is_definite(v)) v = Lv::k0;  // PI don't-cares ride as 0
    }
    result.seeds.push_back(std::move(cp));
  }
  return result;
}

TestPattern decompress_pattern(const StimulusDecompressor& decomp,
                               const CompressedPattern& compressed) {
  TestPattern p;
  p.pi = compressed.pi;
  const BitVec load = decomp.expand(compressed.seed);
  p.scan_in.reserve(load.size());
  for (std::size_t cell = 0; cell < load.size(); ++cell) {
    p.scan_in.push_back(load.get(cell) ? Lv::k1 : Lv::k0);
  }
  return p;
}

}  // namespace xh
