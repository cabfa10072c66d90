#include "atpg/podem.hpp"

#include <algorithm>

#include "sim/gate_eval.hpp"
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

}  // namespace

Podem::Podem(const Netlist& nl, const ScanPlan& plan)
    : nl_(&nl), plan_(&plan), scoap_(compute_scoap(nl)) {
  XH_REQUIRE(nl.finalized(), "PODEM requires a finalized netlist");
  const std::size_t n = nl.gate_count();
  good_.assign(n, Lv::kX);
  bad_.assign(n, Lv::kX);
  comb_fanout_.resize(n);
  for (GateId id = 0; id < n; ++id) {
    for (const GateId next : nl.fanout(id)) {
      if (nl.gate(next).type != GateType::kDff) {
        comb_fanout_[id].push_back(next);
      }
    }
  }
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

void Podem::build_fault_cone(const StuckFault& fault) {
  // A flop's D edge is not combinational (and may point forward in the
  // order), so a flop other than the fault site is never in the cone.
  fault_cone_.clear();
  for (const GateId id : nl_->topo_order()) {
    const Gate& g = nl_->gate(id);
    bool in_cone = id == fault.gate;
    if (!in_cone && g.type != GateType::kDff) {
      for (const GateId f : g.fanin) in_cone = in_cone || in_fault_cone_[f];
    }
    in_fault_cone_[id] = in_cone;
    if (in_cone) fault_cone_.push_back(id);
  }
}

void Podem::simulate(const StuckFault& fault) {
  // Inputs start unassigned, and unscanned flops hold their power-up X
  // forever; every other gate is logic. Only the cone is simulated twice.
  for (const GateId id : nl_->topo_order()) {
    const GateType type = nl_->gate(id).type;
    const Lv gv = type == GateType::kInput || type == GateType::kDff
                      ? Lv::kX
                      : evaluate_combinational(*nl_, id, good_);
    good_[id] = gv;
    if (id == fault.gate) {
      bad_[id] = fault.stuck_at_one ? Lv::k1 : Lv::k0;
    } else {
      bad_[id] = in_fault_cone_[id] ? evaluate_combinational(*nl_, id, bad_)
                                    : gv;
    }
  }
}

void Podem::set_values(GateId id, Lv good, Lv bad) {
  trail_.push_back({id, good_[id], bad_[id]});
  good_[id] = good;
  bad_[id] = bad;
  for (const GateId next : comb_fanout_[id]) {
    if (queued_[next]) continue;
    queued_[next] = true;
    level_queue_[nl_->level(next)].push_back(next);
  }
}

void Podem::assign(const StuckFault& fault, GateId input, bool value) {
  const Lv stuck = fault.stuck_at_one ? Lv::k1 : Lv::k0;
  const Lv v = value ? Lv::k1 : Lv::k0;
  set_values(input, v, input == fault.gate ? stuck : v);
  // A gate's fanout sits on strictly higher levels, so each bucket is
  // complete by the time the sweep reaches it.
  for (std::vector<GateId>& bucket : level_queue_) {
    for (const GateId id : bucket) {
      queued_[id] = false;
      const Lv gv = evaluate_combinational(*nl_, id, good_);
      Lv bv = gv;
      if (id == fault.gate) {
        bv = stuck;
      } else if (in_fault_cone_[id]) {
        bv = evaluate_combinational(*nl_, id, bad_);
      }
      if (gv != good_[id] || bv != bad_[id]) set_values(id, gv, bv);
    }
    bucket.clear();
  }
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    good_[e.gate] = e.good;
    bad_[e.gate] = e.bad;
    trail_.pop_back();
  }
}

bool Podem::detected(const StuckFault& fault) const {
  // A fault on a scanned flop's Q pin is observed on shift-out: detected as
  // soon as the good machine captures the complement of the stuck value.
  const Gate& fg = nl_->gate(fault.gate);
  if (fg.type == GateType::kDff && fg.scanned) {
    const Lv gv = absorb_z(good_[fg.fanin[0]]);
    if (is_definite(gv) && (gv == Lv::k1) != fault.stuck_at_one) return true;
  }
  for (const GateId d : observed_nets_) {
    const Lv gv = absorb_z(good_[d]);
    const Lv bv = absorb_z(bad_[d]);
    if (is_definite(gv) && is_definite(bv) && gv != bv) return true;
  }
  return false;
}

bool Podem::conflict(const StuckFault& fault) const {
  // Excitation impossible: the fault site already carries the stuck value in
  // the good machine (three-valued simulation is monotone — more assignments
  // cannot change a definite value).
  const Lv site = good_[fault.gate];
  if (is_definite(site) &&
      (site == Lv::k1) == fault.stuck_at_one) {
    return true;
  }
  // Observation impossible: every observer already definite and equal. The
  // shift-out observer of a faulty scanned flop compares the good capture
  // against the stuck value itself.
  const Gate& fg = nl_->gate(fault.gate);
  if (fg.type == GateType::kDff && fg.scanned) {
    const Lv gv = absorb_z(good_[fg.fanin[0]]);
    const bool settled_equal =
        is_definite(gv) && (gv == Lv::k1) == fault.stuck_at_one;
    if (!settled_equal) return false;
  }
  for (const GateId d : observed_nets_) {
    const Lv gv = absorb_z(good_[d]);
    const Lv bv = absorb_z(bad_[d]);
    if (!(is_definite(gv) && is_definite(bv) && gv == bv)) return false;
  }
  return true;
}

bool Podem::x_path_exists(const StuckFault& fault) {
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

  const auto open_output = [&](GateId id) {
    return !is_definite(good_[id]) || !is_definite(bad_[id]);
  };
  const auto is_diff = [&](GateId id) {
    const Lv gv = absorb_z(good_[id]);
    const Lv bv = absorb_z(bad_[id]);
    return is_definite(gv) && is_definite(bv) && gv != bv;
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
    for (const GateId next : comb_fanout_[id]) {
      if (visit_stamp_[next] == epoch_) continue;
      if (open_output(next) || is_diff(next)) seed(next);
    }
  }
  return false;
}

std::optional<std::pair<GateId, bool>> Podem::objective(
    const StuckFault& fault) {
  // Phase 1 — excite: drive the fault site to the complement of the stuck
  // value.
  if (!is_definite(good_[fault.gate])) {
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
    const Gate& g = nl_->gate(id);
    if (!is_combinational(g.type)) continue;
    const bool output_open =
        !is_definite(good_[id]) || !is_definite(bad_[id]);
    if (!output_open) continue;
    bool has_diff_input = false;
    for (const GateId f : g.fanin) {
      const Lv gv = absorb_z(good_[f]);
      const Lv bv = absorb_z(bad_[f]);
      if (is_definite(gv) && is_definite(bv) && gv != bv) {
        has_diff_input = true;
        break;
      }
    }
    if (!has_diff_input) continue;
    const std::uint32_t gate_co = scoap_.co[id];
    for (const GateId f : g.fanin) {
      if (is_definite(absorb_z(good_[f]))) continue;
      const std::uint32_t cc = scoap_.cc(f, noncontrolling(g.type));
      if (gate_co < best_co || (gate_co == best_co && cc < best_cc)) {
        best_co = gate_co;
        best_cc = cc;
        best_input = f;
        best_type = g.type;
      }
    }
  }
  if (best_input != kNoGate) {
    return std::make_pair(best_input, noncontrolling(best_type));
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, bool>> Podem::backtrace(GateId gate,
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
      if (is_definite(absorb_z(good_[f]))) continue;
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
        const Lv v = good_[pi];
        pattern.pi.push_back(is_definite(v) ? v : fill_value());
      }
      pattern.scan_in.assign(plan_->geometry().num_cells(),
                             fill_dont_cares ? Lv::k0 : Lv::kX);
      for (std::size_t cell = 0; cell < pattern.scan_in.size(); ++cell) {
        const GateId dff = plan_->dff_at(cell);
        if (dff == kNoGate) continue;
        const Lv v = good_[dff];
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

    XH_ASSERT(!is_definite(good_[target->first]),
              "backtrace must end on an unassigned input");
    stack.push_back({target->first, target->second, false, trail_.size()});
    assign(fault, target->first, target->second);
    ++stats_.decisions;
  }
}

}  // namespace xh
