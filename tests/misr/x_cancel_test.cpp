#include "misr/x_cancel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

std::vector<Lv> lv_slice(const std::string& s) {
  std::vector<Lv> out;
  for (const char c : s) out.push_back(lv_from_char(c));
  return out;
}

TEST(MisrConfig, Validation) {
  EXPECT_THROW((MisrConfig{1, 0}).validate(), std::invalid_argument);
  EXPECT_THROW((MisrConfig{8, 8}).validate(), std::invalid_argument);
  EXPECT_THROW((MisrConfig{8, 0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((MisrConfig{8, 3}).validate());
}

TEST(XCancelSession, NoXGivesDirectSignatureNoStops) {
  XCancelSession session({8, 3});
  Rng rng(5);
  for (int c = 0; c < 20; ++c) {
    std::vector<Lv> slice(8);
    for (auto& v : slice) v = rng.chance(0.5) ? Lv::k1 : Lv::k0;
    session.shift(slice);
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.stops, 0u);
  EXPECT_EQ(r.control_bits(session.config()), 0u);
  EXPECT_EQ(r.total_x_seen, 0u);
  EXPECT_EQ(r.signature.size(), 8u) << "full signature read directly";
}

TEST(XCancelSession, StopsWhenXBudgetReached) {
  // m=8, q=3 → stop every m−q = 5 X's.
  XCancelSession session({8, 3});
  std::size_t shifted_x = 0;
  while (shifted_x < 5) {
    session.shift(lv_slice("X0000000"));
    ++shifted_x;
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.stops, 1u);
  EXPECT_EQ(r.control_bits(session.config()), 8u * 3u);
  EXPECT_EQ(r.total_x_seen, 5u);
}

TEST(XCancelSession, StopCountMatchesClosedFormOnUniformStream) {
  const MisrConfig cfg{16, 4};
  XCancelSession session(cfg);
  Rng rng(7);
  std::size_t total_x = 0;
  for (int c = 0; c < 600; ++c) {
    std::vector<Lv> slice(16, Lv::k0);
    if (c % 2 == 0) {
      slice[rng.below(16)] = Lv::kX;
      ++total_x;
    }
    session.shift(slice);
  }
  const XCancelResult& r = session.finish();
  EXPECT_EQ(r.total_x_seen, total_x);
  EXPECT_EQ(r.stops, total_x / (cfg.size - cfg.q));
}

TEST(XCancelSession, ExtractsQCombinationsPerStop) {
  const MisrConfig cfg{8, 3};
  XCancelSession session(cfg);
  for (int i = 0; i < 5; ++i) session.shift(lv_slice("X0000000"));
  for (int i = 0; i < 4; ++i) session.shift(lv_slice("00000000"));
  const XCancelResult& r = session.finish();
  ASSERT_EQ(r.stops, 1u);
  std::size_t from_stop0 = 0;
  for (const auto& sig : r.signature) {
    if (sig.stop_index == 0) ++from_stop0;
  }
  EXPECT_GE(from_stop0, cfg.q);
}

TEST(XCancelSession, RejectsZAndBadWidth) {
  XCancelSession session({8, 3});
  EXPECT_THROW(session.shift(lv_slice("Z0000000")), std::invalid_argument);
  EXPECT_THROW(session.shift(lv_slice("0000")), std::invalid_argument);
}

TEST(XCancelSession, ShiftAfterFinishThrowsUntilReset) {
  XCancelSession session({8, 3});
  session.shift(lv_slice("00000000"));
  session.finish();
  EXPECT_THROW(session.shift(lv_slice("00000000")), std::invalid_argument);
  session.reset();
  EXPECT_NO_THROW(session.shift(lv_slice("00000000")));
}

// The central soundness property: extracted signature bits are invariant
// under ANY substitution of the X values — they truly canceled out. We replay
// the stream through an independent concrete MISR (same polynomial, same
// segmentation) with the X positions replaced by random concrete bits; every
// extracted combination must evaluate to the same value.
TEST(XCancelProperty, SignatureInvariantUnderXSubstitution) {
  Rng rng(99);
  const MisrConfig cfg{8, 3};
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t cycles = 30 + rng.below(30);
    std::vector<std::string> stream;
    for (std::size_t c = 0; c < cycles; ++c) {
      std::string s;
      for (std::size_t i = 0; i < cfg.size; ++i) {
        const double roll = rng.uniform();
        s.push_back(roll < 0.06 ? 'X' : (roll < 0.55 ? '1' : '0'));
      }
      stream.push_back(s);
    }

    XCancelSession session(cfg);
    for (const auto& s : stream) session.shift(lv_slice(s));
    const XCancelResult ref = session.finish();
    if (ref.stops == 0) continue;  // no combination extracted — nothing to check

    for (std::uint64_t fill_seed : {11ull, 22ull, 33ull}) {
      Rng fill(fill_seed);
      Lfsr concrete(FeedbackPolynomial::primitive(cfg.size));
      concrete.reset();
      std::size_t stop = 0;
      std::size_t sig_index = 0;
      for (std::size_t c = 0; c < stream.size(); ++c) {
        BitVec input(cfg.size);
        for (std::size_t i = 0; i < cfg.size; ++i) {
          const char ch = stream[c][i];
          const bool bit = ch == 'X' ? fill.chance(0.5) : ch == '1';
          input.set(i, bit);
        }
        concrete.step(input);
        if (stop < ref.stop_cycles.size() && c + 1 == ref.stop_cycles[stop]) {
          // Evaluate every combination extracted at this stop.
          while (sig_index < ref.signature.size() &&
                 ref.signature[sig_index].stop_index == stop) {
            bool value = false;
            for (const std::size_t b :
                 ref.signature[sig_index].combination.set_bits()) {
              value ^= concrete.state().get(b);
            }
            EXPECT_EQ(value, ref.signature[sig_index].value)
                << "stop " << stop << " fill seed " << fill_seed;
            ++sig_index;
          }
          concrete.reset();
          ++stop;
        }
      }
    }
  }
}

// An injected single-bit error in a deterministic position must flip at
// least one extracted signature bit (the scheme preserves observability of
// deterministic data that participates in combinations).
TEST(XCancelProperty, DeterministicErrorsAreObservableInCombinations) {
  const MisrConfig cfg{8, 3};
  Rng rng(17);
  int observed = 0;
  int trials = 0;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::vector<Lv>> stream;
    for (int c = 0; c < 40; ++c) {
      std::vector<Lv> s;
      for (std::size_t i = 0; i < cfg.size; ++i) {
        const double roll = rng.uniform();
        s.push_back(roll < 0.05 ? Lv::kX : (roll < 0.5 ? Lv::k1 : Lv::k0));
      }
      stream.push_back(s);
    }
    const auto run = [&](const std::vector<std::vector<Lv>>& st) {
      XCancelSession session(cfg);
      for (const auto& s : st) session.shift(s);
      return session.finish();
    };
    const XCancelResult good = run(stream);

    // Flip one random deterministic bit.
    auto bad_stream = stream;
    for (int guard = 0; guard < 100; ++guard) {
      const std::size_t c = rng.below(bad_stream.size());
      const std::size_t i = rng.below(cfg.size);
      if (bad_stream[c][i] == Lv::kX) continue;
      bad_stream[c][i] =
          bad_stream[c][i] == Lv::k0 ? Lv::k1 : Lv::k0;
      break;
    }
    const XCancelResult bad = run(bad_stream);
    if (good.signature.size() != bad.signature.size()) {
      ++observed;  // structural change — certainly visible
      ++trials;
      continue;
    }
    bool differs = false;
    for (std::size_t i = 0; i < good.signature.size(); ++i) {
      if (good.signature[i].value != bad.signature[i].value ||
          !(good.signature[i].combination == bad.signature[i].combination)) {
        differs = true;
        break;
      }
    }
    observed += differs ? 1 : 0;
    ++trials;
  }
  // q of every m−q X-budget is extracted, so a single error escapes only
  // when it lands entirely outside the extracted combinations. Expect the
  // large majority of injected errors to be observed.
  EXPECT_GE(observed * 10, trials * 6)
      << observed << "/" << trials << " errors observed";
}

// ---------------------------------------------------------------------------
// Golden pins: an FNV-1a hash over every field of XCancelResult — each
// counter, stop_cycles, and every signature bit's stop, value and
// combination words — for run_x_canceling on seeded dense responses. Any
// change to segmentation, symbol order, elimination pivots or the fold
// changes the hash.

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t result_hash(const XCancelResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t v :
       {r.stops, r.shift_cycles, r.total_x_seen, r.selection_vectors,
        r.starved_stops, r.contaminated_dropped, r.extra_combinations,
        r.signature_deficit, r.stop_cycles.size(), r.signature.size()}) {
    h = fnv(h, v);
  }
  for (const std::size_t c : r.stop_cycles) h = fnv(h, c);
  for (const SignatureBit& bit : r.signature) {
    h = fnv(h, bit.stop_index);
    h = fnv(h, bit.value ? 1 : 0);
    h = fnv(h, bit.combination.size());
    for (std::size_t w = 0; w < bit.combination.word_count(); ++w) {
      h = fnv(h, bit.combination.word(w));
    }
  }
  return h;
}

/// Random 0/1 response with X's at @p x_density.
ResponseMatrix dense_response(std::size_t chains, std::size_t length,
                              std::size_t patterns, double x_density,
                              std::uint64_t seed) {
  ResponseMatrix rm({chains, length}, patterns);
  Rng rng(seed);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t cell = 0; cell < rm.num_cells(); ++cell) {
      Lv v = Lv::kX;
      if (!rng.chance(x_density)) v = rng.chance(0.5) ? Lv::k1 : Lv::k0;
      rm.set(p, cell, v);
    }
  }
  return rm;
}

TEST(XCancelGolden, FoldedChains) {
  // 75 chains onto m=32: stages 0..10 take three chains, the rest two.
  const XCancelResult r =
      run_x_canceling(dense_response(75, 24, 30, 0.03, 101), {32, 7});
  EXPECT_GT(r.stops, 0u);
  EXPECT_EQ(result_hash(r), 0xa2e532f46f9f15aeULL);
}

TEST(XCancelGolden, UnusedStages) {
  // 6 chains into m=16: stages 6..15 never see a chain and read 0.
  const XCancelResult r =
      run_x_canceling(dense_response(6, 40, 20, 0.08, 202), {16, 4});
  EXPECT_GT(r.stops, 0u);
  EXPECT_EQ(result_hash(r), 0xfd6a15249780aae1ULL);
}

TEST(XCancelGolden, SegmentsWiderThanOneWord) {
  // m=64 with dense X's: a stop's last slice overshoots the m−q = 57
  // budget past 64 symbols, so X-dependency rows span two words.
  Trace t;
  const XCancelResult r = run_x_canceling(
      dense_response(64, 16, 12, 0.2, 303), {64, 7}, nullptr, &t);
  EXPECT_GT(r.stops, 0u);
  EXPECT_EQ(result_hash(r), 0x7dc6df97e00ce3b5ULL);
#ifndef XH_OBS_NOOP
  const auto hist = t.histograms().find("xcancel.segment_x");
  ASSERT_NE(hist, t.histograms().end());
  EXPECT_GT(hist->second.max, 64u);
#endif
}

TEST(XCancelGolden, XBurstsStarveStops) {
  // Whole-slice X bursts overshoot the m−q = 5 budget of an 8-bit MISR,
  // leaving fewer than q X-free combinations at some stops.
  ResponseMatrix rm = dense_response(8, 40, 10, 0.02, 404);
  Rng rng(405);
  for (std::size_t p = 0; p < rm.num_patterns(); ++p) {
    for (int burst = 0; burst < 3; ++burst) {
      const std::size_t pos = rng.below(rm.geometry().chain_length);
      for (std::size_t c = 0; c < rm.geometry().num_chains; ++c) {
        rm.set(p, rm.geometry().cell_index(c, pos), Lv::kX);
      }
    }
  }
  const XCancelResult r = run_x_canceling(rm, {8, 3});
  EXPECT_GT(r.starved_stops, 0u);
  EXPECT_EQ(result_hash(r), 0x01f73ac31a898a91ULL);
}

TEST(MisrConfig, WidthLimitIsOneWord) {
  // The concrete MISR state is one 64-bit word.
  EXPECT_NO_THROW((MisrConfig{64, 63}).validate());
  EXPECT_THROW((MisrConfig{65, 7}).validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The round-robin spatial XOR compactor (chain c feeds MISR stage c mod m)
// is part of run_x_canceling. These pin it against a per-cell lv_xor fold
// fed through XCancelSession::shift.

XCancelResult fold_per_cell(const ResponseMatrix& rm, MisrConfig cfg) {
  XCancelSession session(cfg);
  const ScanGeometry& geo = rm.geometry();
  for (std::size_t p = 0; p < rm.num_patterns(); ++p) {
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      std::vector<Lv> slice(cfg.size, Lv::k0);
      for (std::size_t c = 0; c < geo.num_chains; ++c) {
        Lv& stage = slice[c % cfg.size];
        stage = lv_xor(stage, rm.get(p, geo.cell_index(c, pos)));
      }
      session.shift(slice);
    }
  }
  return session.finish();
}

void expect_same_result(const XCancelResult& a, const XCancelResult& b) {
  EXPECT_EQ(a.stops, b.stops);
  EXPECT_EQ(a.shift_cycles, b.shift_cycles);
  EXPECT_EQ(a.total_x_seen, b.total_x_seen);
  EXPECT_EQ(a.stop_cycles, b.stop_cycles);
  EXPECT_EQ(a.signature.size(), b.signature.size());
  EXPECT_EQ(result_hash(a), result_hash(b));
}

TEST(SpatialCompactor, IdentityWhenChainsFit) {
  // chains < m (unused stages read 0) and chains == m.
  for (const std::size_t chains : {5u, 8u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const ResponseMatrix rm = dense_response(chains, 70, 3, 0.05, seed);
      expect_same_result(run_x_canceling(rm, {8, 3}),
                         fold_per_cell(rm, {8, 3}));
    }
  }
}

TEST(SpatialCompactor, XorFoldsDefiniteValues) {
  // chains > m, including positions that span several 64-bit words.
  for (const std::size_t chains : {9u, 19u, 75u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const ResponseMatrix rm = dense_response(chains, 150, 2, 0.02, seed);
      expect_same_result(run_x_canceling(rm, {8, 3}),
                         fold_per_cell(rm, {8, 3}));
      expect_same_result(run_x_canceling(rm, {32, 7}),
                         fold_per_cell(rm, {32, 7}));
    }
  }
}

TEST(SpatialCompactor, XPoisonsItsStage) {
  // 4 chains onto m=2: chain 2's definite 1 shares stage 0 with chain 0's X,
  // so stage 0 enters as one X and the 1 is unreadable.
  // Stage 1 folds chains 1 and 3 to 0 ^ 1 = 1.
  const ResponseMatrix rm = ResponseMatrix::from_strings({4, 1}, {"X011"});
  const XCancelResult r = run_x_canceling(rm, {2, 1});
  EXPECT_EQ(r.total_x_seen, 1u);
  XCancelSession session({2, 1});
  session.shift({Lv::kX, Lv::k1});
  expect_same_result(r, session.finish());
}

TEST(SpatialCompactor, TwoXsMergeIntoOne) {
  // Chains 0 and 2 both fold onto stage 0 in the same cycle.
  const ResponseMatrix rm = ResponseMatrix::from_strings({4, 1}, {"X0X0"});
  EXPECT_EQ(run_x_canceling(rm, {2, 1}).total_x_seen, 1u);
}

}  // namespace
}  // namespace xh
