#include "misr/x_cancel.hpp"

#include <bit>
#include <string>

#include "gf2/matrix.hpp"

namespace xh {
namespace {

/// In-place transpose of a 64×64 bit matrix (bit j of a[i] ↔ bit i of a[j]):
/// each round swaps the off-diagonal w×w blocks of every 2w×2w block.
void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t w = 32; w != 0; w >>= 1, mask ^= mask << w) {
    for (std::size_t k = 0; k < 64; k = (k + w + 1) & ~w) {
      const std::uint64_t t = ((a[k] >> w) ^ a[k + w]) & mask;
      a[k] ^= t << w;
      a[k + w] ^= t;
    }
  }
}

/// Bits [@p from, @p from + 64) of @p v as one word, zero past its end.
std::uint64_t window(const BitVec& v, std::size_t from) {
  const std::size_t w = from / 64;
  const std::uint64_t lo = v.word(w) >> (from % 64);
  if (from % 64 == 0 || w + 1 == v.word_count()) return lo;
  return lo | v.word(w + 1) << (64 - from % 64);
}

}  // namespace

XCancelSession::XCancelSession(MisrConfig cfg, Diagnostics* diags,
                               Trace* trace)
    : cfg_(cfg),
      diags_(diags),
      trace_(trace),
      shift_cycles_(obs_counter(trace, "xcancel.shift_cycles")),
      x_seen_(obs_counter(trace, "xcancel.x_seen")),
      eliminations_(obs_counter(trace, "xcancel.eliminations")),
      elimination_rows_(obs_counter(trace, "xcancel.elimination_rows")),
      recheck_rows_(obs_counter(trace, "xcancel.recheck_rows")),
      emitted_(obs_counter(trace, "xcancel.combinations_emitted")),
      dropped_(obs_counter(trace, "xcancel.combinations_dropped")),
      starved_(obs_counter(trace, "xcancel.starved_stops")),
      repaid_(obs_counter(trace, "xcancel.starvation_repaid")),
      stops_(obs_counter(trace, "xcancel.stops")) {
  cfg_.validate();
  const FeedbackPolynomial poly = FeedbackPolynomial::primitive(cfg_.size);
  for (const std::size_t t : poly.taps()) feedback_ |= 1ULL << t;
}

void XCancelSession::reset() {
  concrete_ = 0;
  xdep_ = {};
  segment_x_ = 0;
  deficit_ = 0;
  result_ = {};
  finished_ = false;
}

void XCancelSession::shift(const std::vector<Lv>& slice) {
  XH_REQUIRE(slice.size() == cfg_.size, "slice width must equal MISR size");
  std::uint64_t ones = 0;
  std::uint64_t xs = 0;
  for (std::size_t i = 0; i < cfg_.size; ++i) {
    XH_REQUIRE(slice[i] != Lv::kZ, "Z cannot be captured into the MISR");
    if (slice[i] == Lv::k1) ones |= 1ULL << i;
    if (slice[i] == Lv::kX) xs |= 1ULL << i;
  }
  shift(ones, xs);
}

void XCancelSession::shift(std::uint64_t ones, std::uint64_t xs) {
  const std::uint64_t stages = ~0ULL >> (64 - cfg_.size);
  XH_REQUIRE(!finished_, "session already finished; call reset()");
  XH_REQUIRE(((ones | xs) & ~stages) == 0, "slice wider than the MISR");

  // Concrete step with X read as 0 — sound because extracted combinations
  // are X-independent, so the substituted value cancels out. Internal-XOR
  // form: stage i takes stage i−1, and stage 0 and the taps the feedback.
  const std::uint64_t fed = concrete_ >> (cfg_.size - 1);
  concrete_ = ((concrete_ << 1) & stages) ^ (feedback_ & (0 - fed)) ^
              (ones & ~xs);

  // Symbolic step, same taps: moving the head one slot back hands every
  // stage its predecessor's row in place; old stage m−1 becomes stage 0.
  head_ = (head_ == 0 ? cfg_.size : head_) - 1;
  const XRow fed_row = xdep_[head_];
  for (std::uint64_t taps = feedback_ & ~1ULL; taps != 0; taps &= taps - 1) {
    XRow& row = xdep_[slot(static_cast<std::size_t>(std::countr_zero(taps)))];
    row[0] ^= fed_row[0];
    row[1] ^= fed_row[1];
  }
  // Fresh symbols for the X inputs, in ascending stage order.
  const auto x_in_slice = static_cast<std::size_t>(std::popcount(xs));
  XH_ASSERT(segment_x_ + x_in_slice <= 128, "X symbols overflow two words");
  for (std::uint64_t rest = xs; rest != 0; rest &= rest - 1) {
    XRow& row = xdep_[slot(static_cast<std::size_t>(std::countr_zero(rest)))];
    row[segment_x_ / 64] ^= 1ULL << (segment_x_ % 64);
    ++segment_x_;
  }

  ++result_.shift_cycles;
  result_.total_x_seen += x_in_slice;
  obs_add(shift_cycles_);
  obs_add(x_seen_, x_in_slice);

  if (segment_x_ >= stop_threshold()) extract(/*final_flush=*/false);
}

void XCancelSession::emit(std::uint64_t combination) {
  SignatureBit sig;
  sig.stop_index = result_.stops;
  sig.combination = BitVec(cfg_.size);
  sig.combination.set_word(0, combination);
  sig.value = (std::popcount(combination & concrete_) & 1) != 0;
  result_.signature.push_back(std::move(sig));
}

void XCancelSession::extract(bool final_flush) {
  const std::size_t m = cfg_.size;
  if (segment_x_ == 0) {
    // Fully deterministic signature: read all m bits directly. No stop,
    // no selective-XOR control data.
    if (final_flush && result_.shift_cycles > 0) {
      for (std::size_t b = 0; b < m; ++b) emit(1ULL << b);
    }
    return;
  }
  obs_add(eliminations_);
  obs_add(elimination_rows_, m);
  obs_record(trace_, "xcancel.segment_x", segment_x_);

  // Elimination in the pivot order of gf2::eliminate, tracking the stages
  // each row combines. Rows past the rank end zero; their stage sets are
  // the X-free combinations, in gf2::eliminate's order (it also reduces
  // rows above each pivot, which no later step reads).
  std::array<std::pair<XRow, std::uint64_t>, 64> work;
  for (std::size_t r = 0; r < m; ++r) work[r] = {xdep_[slot(r)], 1ULL << r};
  std::size_t rank = 0;
  for (std::size_t col = 0; col < segment_x_ && rank < m; ++col) {
    const std::size_t w = col / 64;
    const std::uint64_t bit = 1ULL << (col % 64);
    std::size_t sel = rank;
    while (sel < m && (work[sel].first[w] & bit) == 0) ++sel;
    if (sel == m) continue;
    std::swap(work[rank], work[sel]);
    const auto [pivot, pivot_stages] = work[rank];
    for (std::size_t r = rank + 1; r < m; ++r) {
      if ((work[r].first[w] & bit) != 0) {
        work[r].first[0] ^= pivot[0];
        work[r].first[1] ^= pivot[1];
        work[r].second ^= pivot_stages;
      }
    }
    ++rank;
  }
  std::vector<std::uint64_t> combos;
  for (std::size_t r = rank; r < m; ++r) combos.push_back(work[r].second);

  if (tamper_) {
    Gf2Matrix xmat(m, segment_x_);
    for (std::size_t r = 0; r < m; ++r) {
      xmat.row(r).set_word(0, xdep_[slot(r)][0]);
      if (segment_x_ > 64) xmat.row(r).set_word(1, xdep_[slot(r)][1]);
    }
    std::vector<BitVec> vectors;
    for (const std::uint64_t c : combos) vectors.emplace_back(m).set_word(0, c);
    tamper_(vectors, xmat);
    combos.clear();
    for (const BitVec& v : vectors) {
      XH_REQUIRE(v.size() == m, "selection vector width must equal m");
      combos.push_back(v.word(0));
    }
  }

  // Take q verified combinations, plus any owed from earlier starved stops
  // — the null space is larger than q when this segment stopped below the
  // m − q budget, so the deficit can be repaid here.
  const std::size_t want = cfg_.q + deficit_;
  std::size_t taken = 0;
  for (const std::uint64_t combo : combos) {
    if (taken == want) break;
    // Re-check the X-freeness invariant before emitting the bit; a
    // combination that fails is never allowed into the signature.
    XRow acc{};
    for (std::uint64_t rest = combo; rest != 0; rest &= rest - 1) {
      const XRow& row =
          xdep_[slot(static_cast<std::size_t>(std::countr_zero(rest)))];
      acc[0] ^= row[0];
      acc[1] ^= row[1];
    }
    obs_add(recheck_rows_, static_cast<std::uint64_t>(std::popcount(combo)));
    if ((acc[0] | acc[1]) != 0) {
      // With no collector and no injection hook this is unreachable except
      // through a library bug — keep the legacy fail-fast behavior.
      XH_ASSERT(diags_ != nullptr || tamper_,
                "extracted combination is not X-free");
      ++result_.contaminated_dropped;
      obs_add(dropped_);
      diag_report(diags_, DiagSeverity::kWarning,
                  DiagKind::kContaminatedCombination,
                  "stop " + std::to_string(result_.stops),
                  "selection vector fails the X-freeness re-check; dropped");
      continue;
    }
    emit(combo);
    ++taken;
    ++result_.selection_vectors;
  }
  obs_add(emitted_, taken);

  if (taken > cfg_.q) result_.extra_combinations += taken - cfg_.q;
  const std::size_t owed_before = deficit_;
  deficit_ = want - taken;
  if (taken < cfg_.q) {
    ++result_.starved_stops;
    obs_add(starved_);
    // The grown deficit lowers stop_threshold() for the next segment, so a
    // comparable burst cannot overshoot again and the owed bits fit in the
    // next stop's null space.
    diag_report(diags_, DiagSeverity::kWarning, DiagKind::kExtractionStarved,
                "stop " + std::to_string(result_.stops),
                "only " + std::to_string(taken) + " of " +
                    std::to_string(cfg_.q) +
                    " X-free combinations available (segment holds " +
                    std::to_string(segment_x_) + " X's)");
  } else if (owed_before > 0 && deficit_ == 0) {
    obs_add(repaid_, owed_before);
    diag_report(diags_, DiagSeverity::kInfo, DiagKind::kExtractionRecovered,
                "stop " + std::to_string(result_.stops),
                "repaid " + std::to_string(owed_before) +
                    " signature bits owed from starved stops");
  }

  ++result_.stops;
  obs_add(stops_);
  result_.stop_cycles.push_back(result_.shift_cycles);
  concrete_ = 0;
  xdep_ = {};
  segment_x_ = 0;
}

const XCancelResult& XCancelSession::finish() {
  if (!finished_) {
    extract(/*final_flush=*/true);
    result_.signature_deficit = deficit_;
    if (deficit_ > 0) {
      diag_report(diags_, DiagSeverity::kError, DiagKind::kSignatureDeficit,
                  "session",
                  std::to_string(deficit_) +
                      " signature bits lost to starved extractions; the "
                      "emitted signature is X-free but shorter than planned");
    }
    finished_ = true;
  }
  return result_;
}

XCancelResult run_x_canceling(const ResponseMatrix& response, MisrConfig cfg,
                              Diagnostics* diags, Trace* trace) {
  cfg.validate();
  const ScopedSpan span(trace, "cancel");
  XCancelSession session(cfg, diags, trace);
  const ScanGeometry& geo = response.geometry();
  // Cells of a chain are contiguous in a pattern row, so chains fold onto
  // their stage 64 shift cycles per word; a transpose turns the stage words
  // into slices. Window bits past a chain's end fall in unshifted slices.
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec values = response.value_row(p);
    const BitVec x_plane = response.x_row(p);
    for (std::size_t pos = 0; pos < geo.chain_length; pos += 64) {
      std::array<std::uint64_t, 64> ones{};
      std::array<std::uint64_t, 64> xs{};
      for (std::size_t chain = 0, stage = 0; chain < geo.num_chains; ++chain) {
        const std::size_t from = chain * geo.chain_length + pos;
        ones[stage] ^= window(values, from);
        xs[stage] |= window(x_plane, from);
        if (++stage == cfg.size) stage = 0;
      }
      transpose64(ones);
      transpose64(xs);
      for (std::size_t c = 0; c < 64 && pos + c < geo.chain_length; ++c) {
        session.shift(ones[c], xs[c]);
      }
    }
  }
  return session.finish();
}

}  // namespace xh
