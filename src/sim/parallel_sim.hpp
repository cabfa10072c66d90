// 64-way parallel-pattern four-valued simulation.
//
// Each net carries two 64-bit planes; bit lane s of the pair encodes the
// value under pattern slot s using the same 2-bit code as Lv:
//   (p1,p0) = 00 → 0,  01 → 1,  10 → X,  11 → Z.
// evaluate_plane() is the one plane gate evaluator. ParallelSim sweeps it
// over the whole netlist; fault simulation re-evaluates it event-driven
// through one fault's fanout at a time; PODEM runs its good and faulty
// machines in lanes 0 and 1 of one plane.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/gate.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic.hpp"

namespace xh {

/// 64 four-valued lanes packed into two machine words.
struct LvPlane {
  std::uint64_t p0 = 0;
  std::uint64_t p1 = 0;

  void set(std::size_t slot, Lv v);
  Lv get(std::size_t slot) const;

  /// Plane with every lane equal to @p v.
  static LvPlane splat(Lv v);

  /// Lanes holding a definite 0 / a definite 1 / X or Z.
  std::uint64_t zeros() const { return ~p1 & ~p0; }
  std::uint64_t ones() const { return ~p1 & p0; }
  std::uint64_t unknowns() const { return p1; }

  bool operator==(const LvPlane&) const = default;
};

/// Planes of a combinational gate of @p type whose fanin nets are @p fanin,
/// reading each net's planes from @p planes (indexed by GateId). Every lane
/// equals evaluate_combinational() on that lane's values; Z is read as X at
/// every input but a bus's. Not for kInput/kDff, whose value is a source.
inline LvPlane evaluate_plane(GateType type, std::span<const GateId> fanin,
                              const std::vector<LvPlane>& planes) {
  constexpr std::uint64_t kAll = ~0ULL;
  const auto in = [&](std::size_t k) -> const LvPlane& {
    return planes[fanin[k]];
  };
  switch (type) {
    case GateType::kConst0:
      return {0, 0};
    case GateType::kConst1:
      return {kAll, 0};
    case GateType::kBuf:
      return {in(0).ones(), in(0).unknowns()};
    case GateType::kNot:
      return {in(0).zeros(), in(0).unknowns()};
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t all1 = kAll;
      std::uint64_t any0 = 0;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        all1 &= in(k).ones();
        any0 |= in(k).zeros();
      }
      return {type == GateType::kAnd ? all1 : any0, ~all1 & ~any0};
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t any1 = 0;
      std::uint64_t all0 = kAll;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        any1 |= in(k).ones();
        all0 &= in(k).zeros();
      }
      return {type == GateType::kOr ? any1 : all0, ~any1 & ~all0};
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t parity = type == GateType::kXnor ? kAll : 0;
      std::uint64_t anyx = 0;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        parity ^= in(k).ones();
        anyx |= in(k).unknowns();
      }
      return {parity & ~anyx, anyx};
    }
    case GateType::kMux: {
      const LvPlane& s = in(0);
      const LvPlane& a = in(1);
      const LvPlane& b = in(2);
      const std::uint64_t out1 = (s.zeros() & a.ones()) |
                                 (s.ones() & b.ones()) |
                                 (s.unknowns() & a.ones() & b.ones());
      const std::uint64_t out0 = (s.zeros() & a.zeros()) |
                                 (s.ones() & b.zeros()) |
                                 (s.unknowns() & a.zeros() & b.zeros());
      return {out1, ~(out1 | out0)};
    }
    case GateType::kTristate: {
      const LvPlane& en = in(0);
      const LvPlane& d = in(1);
      return {en.zeros() | (en.ones() & d.ones()),
              en.zeros() | en.unknowns() | (en.ones() & d.unknowns())};
    }
    case GateType::kBus: {
      std::uint64_t has0 = 0;
      std::uint64_t has1 = 0;
      std::uint64_t hasx = 0;
      for (std::size_t k = 0; k < fanin.size(); ++k) {
        has0 |= in(k).zeros();
        has1 |= in(k).ones();
        hasx |= in(k).p1 & ~in(k).p0;
      }
      // One or more agreeing drivers win; contention, an unknown driver and
      // a floating bus read X.
      const std::uint64_t out1 = has1 & ~has0 & ~hasx;
      const std::uint64_t out0 = has0 & ~has1 & ~hasx;
      return {out1, ~(out1 | out0)};
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  return {0, kAll};  // a source's value is state, not logic
}

/// A finalized netlist's gates as flat arrays, for the event-driven plane
/// evaluations of fault simulation and PODEM: type, level, fanin and the
/// combinational fanout. Fanout edges into flops are dropped: a flop's value
/// is its state, and the edge into a scanned flop is an observation.
class GateGraph {
 public:
  explicit GateGraph(const Netlist& nl);

  GateType type(GateId id) const { return type_[id]; }
  std::size_t level(GateId id) const { return level_[id]; }
  std::span<const GateId> fanin(GateId id) const {
    return {fanin_.data() + fanin_begin_[id],
            fanin_begin_[id + 1] - fanin_begin_[id]};
  }
  std::span<const GateId> fanout(GateId id) const {
    return {fanout_.data() + fanout_begin_[id],
            fanout_begin_[id + 1] - fanout_begin_[id]};
  }

  /// Planes of combinational gate @p id over every net's @p planes.
  LvPlane evaluate(GateId id, const std::vector<LvPlane>& planes) const {
    return evaluate_plane(type_[id], fanin(id), planes);
  }

 private:
  std::vector<GateType> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::size_t> fanin_begin_;
  std::vector<GateId> fanin_;
  std::vector<std::size_t> fanout_begin_;
  std::vector<GateId> fanout_;
};

/// Parallel-pattern simulator; mirrors CombSim semantics exactly (tested
/// lane-by-lane against it).
class ParallelSim {
 public:
  explicit ParallelSim(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  void set_input(GateId input, const LvPlane& plane);
  void set_state(GateId dff, const LvPlane& plane);
  void set_all_state(Lv v);

  /// Forces the output of @p gate to the stuck-at @p value in the lanes
  /// selected by @p lanes (default: all 64). Lane masking is what lets a
  /// transition-fault simulator force a site only in lanes where a
  /// transition was actually launched.
  struct Fault {
    GateId gate;
    Lv value;
    std::uint64_t lanes = ~0ULL;
  };
  void inject(std::optional<Fault> fault);

  void evaluate();

  const LvPlane& plane(GateId id) const;
  Lv value(GateId id, std::size_t slot) const;
  const LvPlane& next_state_plane(GateId dff) const;

  /// Copies DFF next-state planes into present state.
  void clock();

 private:
  const Netlist* nl_;
  std::vector<LvPlane> planes_;
  std::vector<LvPlane> state_;
  std::vector<LvPlane> next_state_;
  std::optional<Fault> fault_;
  bool evaluated_ = false;
};

}  // namespace xh
