#include "sim/parallel_sim.hpp"

#include "util/check.hpp"

namespace xh {

void LvPlane::set(std::size_t slot, Lv v) {
  XH_REQUIRE(slot < 64, "plane slot out of range");
  const std::uint64_t bit = 1ULL << slot;
  const auto code = static_cast<std::uint8_t>(v);
  p0 = (p0 & ~bit) | ((code & 1U) ? bit : 0U);
  p1 = (p1 & ~bit) | ((code & 2U) ? bit : 0U);
}

Lv LvPlane::get(std::size_t slot) const {
  XH_REQUIRE(slot < 64, "plane slot out of range");
  const std::uint64_t bit = 1ULL << slot;
  const std::uint8_t code = static_cast<std::uint8_t>(((p1 & bit) ? 2 : 0) |
                                                      ((p0 & bit) ? 1 : 0));
  return static_cast<Lv>(code);
}

LvPlane LvPlane::splat(Lv v) {
  const auto code = static_cast<std::uint8_t>(v);
  return LvPlane{(code & 1U) ? ~0ULL : 0U, (code & 2U) ? ~0ULL : 0U};
}

GateGraph::GateGraph(const Netlist& nl) {
  XH_REQUIRE(nl.finalized(), "GateGraph requires a finalized netlist");
  const std::size_t n = nl.gate_count();
  type_.reserve(n);
  level_.reserve(n);
  fanin_begin_.reserve(n + 1);
  fanout_begin_.reserve(n + 1);
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    type_.push_back(g.type);
    level_.push_back(static_cast<std::uint32_t>(nl.level(id)));
    fanin_begin_.push_back(fanin_.size());
    fanin_.insert(fanin_.end(), g.fanin.begin(), g.fanin.end());
    fanout_begin_.push_back(fanout_.size());
    for (const GateId next : nl.fanout(id)) {
      if (nl.gate(next).type != GateType::kDff) fanout_.push_back(next);
    }
  }
  fanin_begin_.push_back(fanin_.size());
  fanout_begin_.push_back(fanout_.size());
}

ParallelSim::ParallelSim(const Netlist& nl) : nl_(&nl) {
  XH_REQUIRE(nl.finalized(), "ParallelSim requires a finalized netlist");
  planes_.assign(nl.gate_count(), LvPlane::splat(Lv::kX));
  state_.assign(nl.gate_count(), LvPlane::splat(Lv::kX));
  next_state_.assign(nl.gate_count(), LvPlane::splat(Lv::kX));
}

void ParallelSim::set_input(GateId input, const LvPlane& plane) {
  XH_REQUIRE(nl_->gate(input).type == GateType::kInput,
             "set_input target is not a primary input");
  planes_[input] = plane;
  evaluated_ = false;
}

void ParallelSim::set_state(GateId dff, const LvPlane& plane) {
  XH_REQUIRE(nl_->gate(dff).type == GateType::kDff,
             "set_state target is not a DFF");
  state_[dff] = plane;
  evaluated_ = false;
}

void ParallelSim::set_all_state(Lv v) {
  for (const GateId dff : nl_->dffs()) state_[dff] = LvPlane::splat(v);
  evaluated_ = false;
}

void ParallelSim::inject(std::optional<Fault> fault) {
  if (fault) {
    XH_REQUIRE(fault->gate < nl_->gate_count(), "fault gate out of range");
    XH_REQUIRE(is_definite(fault->value), "stuck-at value must be 0 or 1");
  }
  fault_ = fault;
  evaluated_ = false;
}

void ParallelSim::evaluate() {
  for (const GateId id : nl_->topo_order()) {
    const Gate& g = nl_->gate(id);
    LvPlane out;
    if (g.type == GateType::kInput) {
      out = planes_[id];
    } else if (g.type == GateType::kDff) {
      out = state_[id];
    } else {
      out = evaluate_plane(g.type, g.fanin, planes_);
    }
    if (fault_ && fault_->gate == id) {
      const LvPlane forced = LvPlane::splat(fault_->value);
      out.p0 = (out.p0 & ~fault_->lanes) | (forced.p0 & fault_->lanes);
      out.p1 = (out.p1 & ~fault_->lanes) | (forced.p1 & fault_->lanes);
    }
    planes_[id] = out;
  }
  for (const GateId dff : nl_->dffs()) {
    const LvPlane& d = planes_[nl_->gate(dff).fanin[0]];
    next_state_[dff] = {d.ones(), d.unknowns()};  // Z absorbed at the D pin
  }
  evaluated_ = true;
}

const LvPlane& ParallelSim::plane(GateId id) const {
  XH_REQUIRE(evaluated_, "call evaluate() before reading planes");
  XH_REQUIRE(id < nl_->gate_count(), "gate id out of range");
  return planes_[id];
}

Lv ParallelSim::value(GateId id, std::size_t slot) const {
  return plane(id).get(slot);
}

const LvPlane& ParallelSim::next_state_plane(GateId dff) const {
  XH_REQUIRE(evaluated_, "call evaluate() before reading next state");
  XH_REQUIRE(nl_->gate(dff).type == GateType::kDff, "not a DFF");
  return next_state_[dff];
}

void ParallelSim::clock() {
  XH_REQUIRE(evaluated_, "call evaluate() before clock()");
  for (const GateId dff : nl_->dffs()) state_[dff] = next_state_[dff];
  evaluated_ = false;
}

}  // namespace xh
