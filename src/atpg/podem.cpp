#include "atpg/podem.hpp"

#include <bit>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

/// Non-controlling value on an input of @p type (the assignment that lets a
/// difference on a sibling input pass through).
bool noncontrolling(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
      return true;  // 1 lets AND-family propagate
    case GateType::kOr:
    case GateType::kNor:
      return false;  // 0 lets OR-family propagate
    default:
      return true;  // XOR-family and routing gates: any definite value
  }
}

/// Does a difference at this gate invert on the way through @p type?
bool inverts(GateType type) {
  return type == GateType::kNot || type == GateType::kNand ||
         type == GateType::kNor || type == GateType::kXnor;
}

// Search k's good machine is lane 2k of a plane and its faulty machine lane
// 2k+1. A per-search mask has bit 2k set for search k.
constexpr std::uint64_t kGoodLanes = 0x5555555555555555ULL;

constexpr std::uint64_t good_lane(std::size_t k) { return 1ULL << (2 * k); }
constexpr std::uint64_t bad_lane(std::size_t k) { return 2ULL << (2 * k); }

/// Every lane unassigned: the value of every input before a decision.
constexpr LvPlane kUnassigned{0, ~0ULL};

}  // namespace

void fill_unassigned(TestPattern& pattern, const ScanPlan& plan,
                     std::uint64_t fill_seed) {
  Rng fill(fill_seed);
  const auto fill_value = [&]() {
    return fill.chance(0.5) ? Lv::k1 : Lv::k0;
  };
  for (Lv& v : pattern.pi) {
    if (!is_definite(v)) v = fill_value();
  }
  for (std::size_t cell = 0; cell < pattern.scan_in.size(); ++cell) {
    Lv& v = pattern.scan_in[cell];
    if (plan.dff_at(cell) == kNoGate) {
      v = Lv::k0;
    } else if (!is_definite(v)) {
      v = fill_value();
    }
  }
}

Podem::Podem(const Netlist& nl, const ScanPlan& plan)
    : nl_(&nl), plan_(&plan), scoap_(compute_scoap(nl)), graph_(nl) {
  XH_REQUIRE(nl.finalized(), "PODEM requires a finalized netlist");
  const std::size_t n = nl.gate_count();
  const std::vector<GateId> scan_dffs = nl.scan_dffs();
  XH_REQUIRE(!scan_dffs.empty(), "no scanned flops to observe");
  is_observed_.assign(n, 0);
  is_scanned_dff_.assign(n, 0);
  for (const GateId dff : scan_dffs) {
    is_observed_[nl.gate(dff).fanin[0]] = 1;
    is_scanned_dff_[dff] = 1;
  }
  source_.assign(n, kUnassigned);
  forced_.assign(n, 0);
  forced_one_.assign(n, 0);
  planes_.assign(n, kUnassigned);
  masks_.assign(n, PairMasks{});
}

bool Podem::good_definite(std::size_t k, GateId id) const {
  return (planes_[id].p1 & good_lane(k)) == 0;
}

bool Podem::good_one(std::size_t k, GateId id) const {
  return (planes_[id].p0 & good_lane(k)) != 0;
}

bool Podem::shift_out_differs(std::size_t k) const {
  const StuckFault& fault = slots_[k].fault;
  if (is_scanned_dff_[fault.gate] == 0) return false;
  const GateId d = graph_.fanin(fault.gate)[0];
  return good_definite(k, d) && good_one(k, d) != fault.stuck_at_one;
}

bool Podem::shift_out_settled_equal(std::size_t k) const {
  const StuckFault& fault = slots_[k].fault;
  const GateId d = graph_.fanin(fault.gate)[0];
  return good_definite(k, d) && good_one(k, d) == fault.stuck_at_one;
}

void Podem::sweep() {
  ++rounds_;
  observed_open_ = 0;
  observed_diff_ = 0;
  observed_reach_ = 0;
  objective_.fill(Objective{});
  for (const GateId id : nl_->topo_order()) {
    const GateType type = graph_.type(id);
    const bool source = !is_combinational(type);
    LvPlane v = source ? source_[id] : graph_.evaluate(id, planes_);
    const std::uint64_t forced = forced_[id];
    if (forced != 0) {
      v.p0 = (v.p0 & ~forced) | forced_one_[id];
      v.p1 &= ~forced;
    }
    planes_[id] = v;
    // Open: X or Z in either machine. Difference: definite in both and
    // unequal. An X-path reaches a net that differs, and an open net that
    // is a search's own fault site or has a reached fanin.
    const std::uint64_t open = (v.p1 | (v.p1 >> 1)) & kGoodLanes;
    const std::uint64_t diff = (v.p0 ^ (v.p0 >> 1)) & ~open & kGoodLanes;
    std::uint64_t reach_in = forced >> 1;
    std::uint64_t diff_in = 0;
    if (!source) {
      for (const GateId f : graph_.fanin(id)) {
        reach_in |= masks_[f].reach;
        diff_in |= masks_[f].diff;
      }
    }
    const std::uint64_t reach = diff | (open & reach_in);
    masks_[id] = {diff, reach};
    if (is_observed_[id] != 0) {
      observed_open_ |= open;
      observed_diff_ |= diff;
      observed_reach_ |= reach;
    }
    // D-frontier: open with a differing fanin. Gates come in topological
    // order and a candidate must beat the best strictly, so each search
    // keeps the first of its equally good candidates.
    const std::uint64_t frontier = open & diff_in;
    if (frontier == 0) continue;
    const std::uint32_t gate_co = scoap_.co[id];
    const bool value = noncontrolling(type);
    for (std::uint64_t m = frontier; m != 0; m &= m - 1) {
      const std::size_t k = static_cast<std::size_t>(std::countr_zero(m)) / 2;
      Objective& best = objective_[k];
      for (const GateId f : graph_.fanin(id)) {
        if (good_definite(k, f)) continue;
        const std::uint32_t cc = scoap_.cc(f, value);
        if (gate_co < best.co || (gate_co == best.co && cc < best.cc)) {
          best = {f, value, gate_co, cc};
        }
      }
    }
  }
}

void Podem::assign(std::size_t k, GateId input, bool value) {
  const std::uint64_t lanes = good_lane(k) | bad_lane(k);
  LvPlane& v = source_[input];
  v.p0 = value ? v.p0 | lanes : v.p0 & ~lanes;
  v.p1 &= ~lanes;
}

void Podem::unassign(std::size_t k, GateId input) {
  const std::uint64_t lanes = good_lane(k) | bad_lane(k);
  LvPlane& v = source_[input];
  v.p0 &= ~lanes;
  v.p1 |= lanes;
}

void Podem::clear(std::size_t k) {
  Search& s = slots_[k];
  for (const Assignment& a : s.stack) unassign(k, a.input);
  s.stack.clear();
  forced_[s.fault.gate] &= ~bad_lane(k);
  forced_one_[s.fault.gate] &= ~bad_lane(k);
}

std::size_t Podem::launch(const StuckFault& fault,
                          std::size_t backtrack_limit) {
  XH_REQUIRE(fault.gate < nl_->gate_count(), "fault gate out of range");
  XH_REQUIRE(has_free_slot(), "every PODEM slot is busy");
  const auto k = static_cast<std::size_t>(std::countr_one(busy_));
  Search& s = slots_[k];
  s.fault = fault;
  s.backtrack_limit = backtrack_limit;
  s.stats = {};
  s.pattern.reset();
  forced_[fault.gate] |= bad_lane(k);
  if (fault.stuck_at_one) forced_one_[fault.gate] |= bad_lane(k);
  busy_ |= 1U << k;
  running_ |= 1U << k;
  return k;
}

void Podem::cancel(std::size_t slot) {
  XH_REQUIRE(slot < kSlots && ((busy_ >> slot) & 1U) != 0,
             "cancel() of a free slot");
  clear(slot);
  busy_ &= ~(1U << slot);
  running_ &= ~(1U << slot);
}

PodemResult Podem::take(std::size_t slot) {
  XH_REQUIRE(slot < kSlots && ((busy_ >> slot) & 1U) != 0 &&
                 ((running_ >> slot) & 1U) == 0,
             "take() of a slot with no finished search");
  Search& s = slots_[slot];
  PodemResult result{s.stats, std::move(s.pattern)};
  clear(slot);
  busy_ &= ~(1U << slot);
  return result;
}

std::uint32_t Podem::round() {
  if (running_ == 0) return 0;
  sweep();
  std::uint32_t finished = 0;
  for (std::uint32_t m = running_; m != 0; m &= m - 1) {
    const auto k = static_cast<std::size_t>(std::countr_zero(m));
    if (step(k)) finished |= 1U << k;
  }
  running_ &= ~finished;
  return finished;
}

bool Podem::step(std::size_t k) {
  ++lane_steps_;
  Search& s = slots_[k];
  const StuckFault& fault = s.fault;
  const std::uint64_t pair = good_lane(k);

  // Detected: an observed net differs, or a faulted scanned flop's good
  // capture is the complement of its stuck value (seen on shift-out). The
  // good machine holds each input's assignment (X when unassigned).
  if ((observed_diff_ & pair) != 0 || shift_out_differs(k)) {
    TestPattern pattern;
    pattern.pi.reserve(nl_->inputs().size());
    const auto value = [&](GateId id) {
      const LvPlane& v = source_[id];
      if ((v.p1 & pair) != 0) return Lv::kX;
      return (v.p0 & pair) != 0 ? Lv::k1 : Lv::k0;
    };
    for (const GateId pi : nl_->inputs()) pattern.pi.push_back(value(pi));
    pattern.scan_in.assign(plan_->geometry().num_cells(), Lv::kX);
    for (std::size_t cell = 0; cell < pattern.scan_in.size(); ++cell) {
      const GateId dff = plan_->dff_at(cell);
      if (dff != kNoGate) pattern.scan_in[cell] = value(dff);
    }
    s.pattern = std::move(pattern);
    return true;
  }

  if (s.stats.backtracks > s.backtrack_limit) {
    s.stats.aborted = true;
    return true;
  }

  // Conflict: excitation is impossible (the site's good value is the stuck
  // value), or observation is (every observer definite and equal; a
  // faulted scanned flop's shift-out observer compares its good capture
  // against the stuck value itself). Three-valued simulation is monotone,
  // so no further assignment can undo either. Without an X-path from a
  // difference or the open site to an observer, no completion detects.
  bool need_backtrack = false;
  if (good_definite(k, fault.gate) &&
      good_one(k, fault.gate) == fault.stuck_at_one) {
    need_backtrack = true;
  } else if (is_scanned_dff_[fault.gate] == 0 || shift_out_settled_equal(k)) {
    need_backtrack = ((observed_open_ | observed_diff_) & pair) == 0;
  }
  need_backtrack = need_backtrack || (observed_reach_ & pair) == 0;

  // Objective: excite the site first (drive it to the complement of the
  // stuck value), then sensitize the sweep's best D-frontier input.
  std::optional<std::pair<GateId, bool>> target;
  if (!need_backtrack) {
    if (!good_definite(k, fault.gate)) {
      target = backtrace(k, fault.gate, !fault.stuck_at_one);
    } else if (objective_[k].input != kNoGate) {
      target = backtrace(k, objective_[k].input, objective_[k].value);
    }
    need_backtrack = !target.has_value();
  }

  if (need_backtrack) {
    ++s.stats.backtracks;
    while (!s.stack.empty() && s.stack.back().tried_both) {
      unassign(k, s.stack.back().input);
      s.stack.pop_back();
    }
    if (s.stack.empty()) return true;  // exhausted: untestable
    Assignment& top = s.stack.back();
    top.value = !top.value;
    top.tried_both = true;
    assign(k, top.input, top.value);
    return false;
  }

  XH_ASSERT(!good_definite(k, target->first),
            "backtrace must end on an unassigned input");
  s.stack.push_back({target->first, target->second, false});
  assign(k, target->first, target->second);
  ++s.stats.decisions;
  return false;
}

std::optional<std::pair<GateId, bool>> Podem::backtrace(std::size_t k,
                                                        GateId gate,
                                                        bool value) const {
  for (std::size_t guard = 0; guard <= nl_->gate_count(); ++guard) {
    const GateType type = graph_.type(gate);
    if (type == GateType::kInput) return std::make_pair(gate, value);
    if (type == GateType::kDff) {
      if (is_scanned_dff_[gate] != 0) return std::make_pair(gate, value);
      return std::nullopt;  // unscanned flop: uncontrollable
    }
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      return std::nullopt;
    }
    // Follow the cheapest X-valued fanin (SCOAP-guided) toward the inputs,
    // flipping the target value through inverting gates.
    const bool next_value = inverts(type) ? !value : value;
    GateId next = kNoGate;
    std::uint32_t next_cost = kScoapInf;
    for (const GateId f : graph_.fanin(gate)) {
      if (good_definite(k, f)) continue;
      const std::uint32_t cost = scoap_.cc(f, next_value);
      if (next == kNoGate || cost < next_cost) {
        next = f;
        next_cost = cost;
      }
    }
    if (next == kNoGate) return std::nullopt;  // fully determined already
    value = next_value;
    gate = next;
  }
  return std::nullopt;  // unreachable on acyclic combinational logic
}

std::optional<TestPattern> Podem::generate(const StuckFault& fault,
                                           std::size_t backtrack_limit,
                                           std::uint64_t fill_seed,
                                           bool fill_dont_cares) {
  XH_REQUIRE(busy_ == 0, "generate() needs every slot free");
  const std::size_t k = launch(fault, backtrack_limit);
  while (round() == 0) continue;
  PodemResult result = take(k);
  stats_ = result.stats;
  if (result.pattern && fill_dont_cares) {
    fill_unassigned(*result.pattern, *plan_, fill_seed);
  }
  return std::move(result.pattern);
}

}  // namespace xh
