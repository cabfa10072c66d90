#include "podem_reference.hpp"

#include <algorithm>
#include <span>

#include "fault/fault_sim.hpp"
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

// A gate's plane holds the good machine in lane 0 and the faulty machine in
// lane 1; the other lanes stay 0.
constexpr std::uint64_t kGoodLane = 1;
constexpr std::uint64_t kBadLane = 2;
constexpr std::uint64_t kLanes = kGoodLane | kBadLane;

/// Both machines unassigned: the value of every input before a decision.
constexpr LvPlane kUnassigned{0, kLanes};

/// @p v with the faulty lane forced to the stuck value.
LvPlane force_bad(LvPlane v, bool stuck_at_one) {
  v.p0 = stuck_at_one ? v.p0 | kBadLane : v.p0 & ~kBadLane;
  v.p1 &= ~kBadLane;
  return v;
}

/// Unresolved (X or Z) in either machine.
bool is_open(const LvPlane& v) { return (v.p1 & kLanes) != 0; }

/// Definite in both machines and different: a fault effect.
bool is_difference(const LvPlane& v) {
  return !is_open(v) && ((v.p0 ^ (v.p0 >> 1)) & kGoodLane) != 0;
}

Lv lane(const LvPlane& v, unsigned k) {
  return static_cast<Lv>((((v.p1 >> k) & 1U) << 1) | ((v.p0 >> k) & 1U));
}

}  // namespace

ReferencePodem::ReferencePodem(const Netlist& nl, const ScanPlan& plan)
    : nl_(&nl), plan_(&plan), scoap_(compute_scoap(nl)), graph_(nl) {
  XH_REQUIRE(nl.finalized(), "PODEM requires a finalized netlist");
  const std::size_t n = nl.gate_count();
  planes_.assign(n, kUnassigned);
  is_observed_.assign(n, false);
  for (const GateId dff : nl.scan_dffs()) {
    const GateId d = nl.gate(dff).fanin[0];
    observed_nets_.push_back(d);
    is_observed_[d] = true;
  }
  XH_REQUIRE(!observed_nets_.empty(), "no scanned flops to observe");
  in_fault_cone_.assign(n, false);
  level_queue_.resize(nl.depth() + 1);
  queued_.assign(n, false);
  visit_stamp_.assign(n, 0);
}

Lv ReferencePodem::good(GateId id) const { return lane(planes_[id], 0); }

void ReferencePodem::build_fault_cone(const StuckFault& fault) {
  // A flop's D edge is not combinational (and may point forward in the
  // order), so a flop other than the fault site is never in the cone.
  fault_cone_.clear();
  for (const GateId id : nl_->topo_order()) {
    bool in_cone = id == fault.gate;
    if (!in_cone && graph_.type(id) != GateType::kDff) {
      for (const GateId f : graph_.fanin(id)) {
        in_cone = in_cone || in_fault_cone_[f];
      }
    }
    in_fault_cone_[id] = in_cone;
    if (in_cone) fault_cone_.push_back(id);
  }
}

void ReferencePodem::simulate(const StuckFault& fault) {
  // Inputs start unassigned, and unscanned flops hold their power-up X
  // forever; every other gate is logic.
  for (const GateId id : nl_->topo_order()) {
    const GateType type = graph_.type(id);
    if (type != GateType::kInput && type != GateType::kDff) {
      planes_[id] = implied(fault, id);
    } else if (id == fault.gate) {
      planes_[id] = force_bad(kUnassigned, fault.stuck_at_one);
    } else {
      planes_[id] = kUnassigned;
    }
  }
}

LvPlane ReferencePodem::implied(const StuckFault& fault, GateId id) const {
  LvPlane v = graph_.evaluate(id, planes_);
  v.p0 &= kLanes;
  v.p1 &= kLanes;
  return id == fault.gate ? force_bad(v, fault.stuck_at_one) : v;
}

void ReferencePodem::set_planes(GateId id, const LvPlane& planes) {
  trail_.push_back({id, planes_[id]});
  planes_[id] = planes;
  for (const GateId next : graph_.fanout(id)) {
    if (queued_[next]) continue;
    queued_[next] = true;
    const std::size_t level = graph_.level(next);
    level_queue_[level].push_back(next);
    top_level_ = std::max(top_level_, level);
  }
}

void ReferencePodem::assign(const StuckFault& fault, GateId input, bool value) {
  const LvPlane v{value ? kLanes : 0, 0};
  set_planes(input,
             input == fault.gate ? force_bad(v, fault.stuck_at_one) : v);
  // A gate's fanout sits on strictly higher levels, so each bucket is
  // complete by the time the sweep reaches it. One evaluation implies both
  // machines; outside the fault cone the faulty lane equals the good one.
  for (std::size_t level = 1; level <= top_level_; ++level) {
    std::vector<GateId>& bucket = level_queue_[level];
    for (const GateId id : bucket) {
      queued_[id] = false;
      const LvPlane out = implied(fault, id);
      if (!(out == planes_[id])) set_planes(id, out);
    }
    bucket.clear();
  }
  top_level_ = 0;
}

void ReferencePodem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    planes_[e.gate] = e.planes;
    trail_.pop_back();
  }
}

bool ReferencePodem::detected(const StuckFault& fault) const {
  // A fault on a scanned flop's Q pin is observed on shift-out: detected as
  // soon as the good machine captures the complement of the stuck value.
  const Gate& fg = nl_->gate(fault.gate);
  if (fg.type == GateType::kDff && fg.scanned) {
    const Lv gv = absorb_z(good(fg.fanin[0]));
    if (is_definite(gv) && (gv == Lv::k1) != fault.stuck_at_one) return true;
  }
  for (const GateId d : observed_nets_) {
    if (is_difference(planes_[d])) return true;
  }
  return false;
}

bool ReferencePodem::conflict(const StuckFault& fault) const {
  // Excitation impossible: the fault site already carries the stuck value in
  // the good machine (three-valued simulation is monotone — more assignments
  // cannot change a definite value).
  const Lv site = good(fault.gate);
  if (is_definite(site) &&
      (site == Lv::k1) == fault.stuck_at_one) {
    return true;
  }
  // Observation impossible: every observer already definite and equal. The
  // shift-out observer of a faulty scanned flop compares the good capture
  // against the stuck value itself.
  const Gate& fg = nl_->gate(fault.gate);
  if (fg.type == GateType::kDff && fg.scanned) {
    const Lv gv = absorb_z(good(fg.fanin[0]));
    const bool settled_equal =
        is_definite(gv) && (gv == Lv::k1) == fault.stuck_at_one;
    if (!settled_equal) return false;
  }
  for (const GateId d : observed_nets_) {
    const LvPlane& v = planes_[d];
    if (is_open(v) || is_difference(v)) return false;
  }
  return true;
}

bool ReferencePodem::x_path_exists(const StuckFault& fault) {
  // Forward reachability from every difference point through gates whose
  // output is still unresolved (X in either machine). If no such path can
  // touch an observed D input, three-valued monotonicity guarantees no
  // further assignment detects the fault. Every difference point lies in
  // the fault cone, and so does every gate the search can reach.
  if (++epoch_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
    epoch_ = 1;
  }
  dfs_stack_.clear();

  const auto open_output = [&](GateId id) { return is_open(planes_[id]); };
  const auto is_diff = [&](GateId id) {
    return is_difference(planes_[id]);
  };
  const auto seed = [&](GateId id) {
    if (visit_stamp_[id] != epoch_) {
      visit_stamp_[id] = epoch_;
      dfs_stack_.push_back(id);
    }
  };
  // Seeds: the fault site (even while unexcited — excitation may still
  // happen if the site is open) and every current difference point.
  if (open_output(fault.gate) || is_diff(fault.gate)) seed(fault.gate);
  for (const GateId id : fault_cone_) {
    if (is_diff(id)) seed(id);
  }

  while (!dfs_stack_.empty()) {
    const GateId id = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (is_observed_[id]) return true;
    for (const GateId next : graph_.fanout(id)) {
      if (visit_stamp_[next] == epoch_) continue;
      if (open_output(next) || is_diff(next)) seed(next);
    }
  }
  return false;
}

std::optional<std::pair<GateId, bool>> ReferencePodem::objective(
    const StuckFault& fault) {
  // Phase 1 — excite: drive the fault site to the complement of the stuck
  // value.
  if (!is_definite(good(fault.gate))) {
    return std::make_pair(fault.gate, !fault.stuck_at_one);
  }

  // Phase 2 — propagate: among D-frontier gates (definite good/bad
  // difference on a fanin, unresolved output), prefer the most observable
  // one (min SCOAP CO) and within it the cheapest X input to sensitize. A
  // fanin difference puts the gate in the fault cone, so only the cone is
  // scanned, in the same topological order as the whole netlist.
  GateId best_input = kNoGate;
  GateType best_type = GateType::kBuf;
  std::uint32_t best_co = kScoapInf;
  std::uint32_t best_cc = kScoapInf;
  for (const GateId id : fault_cone_) {
    const GateType type = graph_.type(id);
    if (!is_combinational(type)) continue;
    if (!is_open(planes_[id])) continue;
    const std::span<const GateId> fanin = graph_.fanin(id);
    const bool has_diff_input =
        std::any_of(fanin.begin(), fanin.end(),
                    [&](GateId f) { return is_difference(planes_[f]); });
    if (!has_diff_input) continue;
    const std::uint32_t gate_co = scoap_.co[id];
    for (const GateId f : fanin) {
      if (is_definite(absorb_z(good(f)))) continue;
      const std::uint32_t cc = scoap_.cc(f, noncontrolling(type));
      if (gate_co < best_co || (gate_co == best_co && cc < best_cc)) {
        best_co = gate_co;
        best_cc = cc;
        best_input = f;
        best_type = type;
      }
    }
  }
  if (best_input != kNoGate) {
    return std::make_pair(best_input, noncontrolling(best_type));
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, bool>> ReferencePodem::backtrace(GateId gate,
                                                        bool value) {
  for (std::size_t guard = 0; guard <= nl_->gate_count(); ++guard) {
    const Gate& g = nl_->gate(gate);
    if (g.type == GateType::kInput) return std::make_pair(gate, value);
    if (g.type == GateType::kDff) {
      if (g.scanned) return std::make_pair(gate, value);
      return std::nullopt;  // unscanned flop: uncontrollable
    }
    if (g.type == GateType::kConst0 || g.type == GateType::kConst1) {
      return std::nullopt;
    }
    // Follow the cheapest X-valued fanin (SCOAP-guided) toward the inputs,
    // flipping the target value through inverting gates.
    const bool next_value = inverts(g.type) ? !value : value;
    GateId next = kNoGate;
    std::uint32_t next_cost = kScoapInf;
    for (const GateId f : g.fanin) {
      if (is_definite(absorb_z(good(f)))) continue;
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

std::optional<TestPattern> ReferencePodem::generate(const StuckFault& fault,
                                           std::size_t backtrack_limit,
                                           std::uint64_t fill_seed,
                                           bool fill_dont_cares) {
  XH_REQUIRE(fault.gate < nl_->gate_count(), "fault gate out of range");
  stats_ = {};
  build_fault_cone(fault);
  simulate(fault);
  trail_.clear();

  std::vector<Assignment> stack;
  const auto backtrack = [&]() -> bool {
    ++stats_.backtracks;
    while (!stack.empty() && stack.back().tried_both) stack.pop_back();
    if (stack.empty()) return false;
    Assignment& top = stack.back();
    undo_to(top.trail_mark);
    top.value = !top.value;
    top.tried_both = true;
    assign(fault, top.input, top.value);
    return true;
  };

  for (;;) {
    if (detected(fault)) {
      // The good machine holds each input's assignment (X when unassigned).
      TestPattern pattern;
      Rng fill(fill_seed);
      pattern.pi.reserve(nl_->inputs().size());
      const auto fill_value = [&]() {
        return fill_dont_cares ? (fill.chance(0.5) ? Lv::k1 : Lv::k0)
                               : Lv::kX;
      };
      for (const GateId pi : nl_->inputs()) {
        const Lv v = good(pi);
        pattern.pi.push_back(is_definite(v) ? v : fill_value());
      }
      pattern.scan_in.assign(plan_->geometry().num_cells(),
                             fill_dont_cares ? Lv::k0 : Lv::kX);
      for (std::size_t cell = 0; cell < pattern.scan_in.size(); ++cell) {
        const GateId dff = plan_->dff_at(cell);
        if (dff == kNoGate) continue;
        const Lv v = good(dff);
        pattern.scan_in[cell] = is_definite(v) ? v : fill_value();
      }
      return pattern;
    }

    if (stats_.backtracks > backtrack_limit) {
      stats_.aborted = true;
      return std::nullopt;
    }

    bool need_backtrack = conflict(fault) || !x_path_exists(fault);
    std::optional<std::pair<GateId, bool>> target;
    if (!need_backtrack) {
      const auto obj = objective(fault);
      if (!obj) {
        need_backtrack = true;
      } else {
        target = backtrace(obj->first, obj->second);
        if (!target) need_backtrack = true;
      }
    }

    if (need_backtrack) {
      if (!backtrack()) return std::nullopt;  // exhausted: untestable
      continue;
    }

    XH_ASSERT(!is_definite(good(target->first)),
              "backtrace must end on an unassigned input");
    stack.push_back({target->first, target->second, false, trail_.size()});
    assign(fault, target->first, target->second);
    ++stats_.decisions;
  }
}

AtpgResult reference_test_set(const Netlist& nl, const ScanPlan& plan,
                              const AtpgConfig& cfg,
                              std::vector<PodemStats>* stats) {
  AtpgResult result;
  result.faults = collapse_faults(nl, enumerate_faults(nl));
  result.detected.assign(result.faults.size(), false);

  FaultSimulator fsim(nl, plan);
  Rng rng(cfg.seed);

  if (cfg.random_patterns > 0 && cfg.fill_dont_cares) {
    std::vector<TestPattern> randoms;
    randoms.reserve(cfg.random_patterns);
    for (std::size_t i = 0; i < cfg.random_patterns; ++i) {
      randoms.push_back(random_pattern(nl, plan, rng));
    }
    const FaultSimResult rs = fsim.run(randoms, result.faults);
    if (cfg.compact_random_phase) {
      std::vector<bool> keep(randoms.size(), false);
      for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
        if (rs.detected[fi]) keep[rs.first_pattern[fi]] = true;
      }
      for (std::size_t i = 0; i < randoms.size(); ++i) {
        if (keep[i]) result.patterns.push_back(randoms[i]);
      }
    } else {
      result.patterns = randoms;
    }
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (rs.detected[fi]) {
        result.detected[fi] = true;
        ++result.num_detected;
      }
    }
  }

  ReferencePodem podem(nl, plan);
  for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
    if (result.detected[fi]) continue;
    const std::optional<TestPattern> pattern =
        podem.generate(result.faults[fi], cfg.backtrack_limit,
                       rng.next_u64(), cfg.fill_dont_cares);
    if (stats != nullptr) stats->push_back(podem.stats());
    if (!pattern) {
      if (podem.stats().aborted) {
        ++result.num_aborted;
      } else {
        ++result.num_untestable;
      }
      continue;
    }
    result.patterns.push_back(*pattern);
    std::vector<std::size_t> remaining;
    std::vector<StuckFault> candidates;
    for (std::size_t fj = fi; fj < result.faults.size(); ++fj) {
      if (result.detected[fj]) continue;
      remaining.push_back(fj);
      candidates.push_back(result.faults[fj]);
    }
    const FaultSimResult drop = fsim.run({*pattern}, candidates);
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      if (drop.detected[k]) {
        result.detected[remaining[k]] = true;
        ++result.num_detected;
      }
    }
  }
  return result;
}

}  // namespace xh
