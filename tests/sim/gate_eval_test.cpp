#include "sim/gate_eval.hpp"

#include <gtest/gtest.h>

#include <string>

#include "netlist/generator.hpp"
#include "sim/comb_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

TEST(GateEval, RejectsSources) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId ff = nl.add_dff(a, "ff");
  nl.mark_output(ff);
  nl.finalize();
  std::vector<Lv> values(nl.gate_count(), Lv::k0);
  EXPECT_THROW(evaluate_combinational(nl, a, values), std::invalid_argument);
  EXPECT_THROW(evaluate_combinational(nl, ff, values), std::invalid_argument);
}

TEST(GateEval, VariadicGates) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c = nl.add_input("c");
  const GateId g_and = nl.add_gate(GateType::kAnd, {a, b, c}, "g_and");
  const GateId g_xor = nl.add_gate(GateType::kXor, {a, b, c}, "g_xor");
  nl.mark_output(g_and);
  nl.finalize();

  std::vector<Lv> values(nl.gate_count(), Lv::k1);
  EXPECT_EQ(evaluate_combinational(nl, g_and, values), Lv::k1);
  EXPECT_EQ(evaluate_combinational(nl, g_xor, values), Lv::k1);
  values[b] = Lv::k0;
  EXPECT_EQ(evaluate_combinational(nl, g_and, values), Lv::k0);
  EXPECT_EQ(evaluate_combinational(nl, g_xor, values), Lv::k0);
  values[c] = Lv::kX;
  EXPECT_EQ(evaluate_combinational(nl, g_and, values), Lv::k0)
      << "controlling 0 beats X";
  EXPECT_EQ(evaluate_combinational(nl, g_xor, values), Lv::kX);
}

// Property: the standalone evaluator agrees with CombSim on every gate of a
// random circuit (CombSim is built on it, but via its own source handling —
// this pins the contract).
TEST(GateEvalProperty, AgreesWithCombSim) {
  GeneratorConfig cfg;
  cfg.seed = 51;
  cfg.num_gates = 120;
  cfg.num_buses = 2;
  const Netlist nl = generate_circuit(cfg);
  CombSim sim(nl);
  Rng rng(5);
  for (const GateId pi : nl.inputs()) {
    sim.set_input(pi, rng.chance(0.3) ? Lv::kX
                                      : (rng.chance(0.5) ? Lv::k1 : Lv::k0));
  }
  sim.set_all_state(Lv::kX);
  sim.evaluate();

  std::vector<Lv> values(nl.gate_count());
  for (GateId id = 0; id < nl.gate_count(); ++id) values[id] = sim.value(id);
  for (GateId id = 0; id < nl.gate_count(); ++id) {
    const GateType type = nl.gate(id).type;
    if (type == GateType::kInput || type == GateType::kDff) continue;
    EXPECT_EQ(evaluate_combinational(nl, id, values), sim.value(id))
        << nl.gate(id).name;
  }
}

// evaluate_plane is the one gate evaluator of the plane simulators, and
// PODEM runs its good and faulty machines in lanes 0 and 1 of one plane.
// For every combinational gate type at every arity up to 3, and every
// (good, bad) pair over {0, 1, X, Z} on every input, each lane must read
// what evaluate_combinational gives for that lane's values.
TEST(GateEval, TwoLanePlanesMatchScalarExhaustively) {
  constexpr Lv kValues[] = {Lv::k0, Lv::k1, Lv::kX, Lv::kZ};
  const GateType kTypes[] = {
      GateType::kConst0, GateType::kConst1, GateType::kBuf,
      GateType::kNot,    GateType::kAnd,    GateType::kNand,
      GateType::kOr,     GateType::kNor,    GateType::kXor,
      GateType::kXnor,   GateType::kMux,    GateType::kTristate,
      GateType::kBus};
  std::size_t checked = 0;
  for (const GateType type : kTypes) {
    const std::size_t lo = min_fanin(type);
    const std::size_t hi = variadic_fanin(type) ? 3 : lo;
    for (std::size_t arity = lo; arity <= hi; ++arity) {
      // A bus reads tri-state drivers; every other gate reads inputs. Only
      // the fanin nets' values matter, so they are set directly.
      Netlist nl;
      const GateId en = nl.add_input("en");
      std::vector<GateId> fanin;
      for (std::size_t k = 0; k < arity; ++k) {
        const GateId in = nl.add_input("i" + std::to_string(k));
        fanin.push_back(type == GateType::kBus
                            ? nl.add_gate(GateType::kTristate, {en, in})
                            : in);
      }
      const GateId g = nl.add_gate(type, fanin, "g");
      nl.mark_output(g);
      nl.finalize();

      std::vector<Lv> good(nl.gate_count(), Lv::kX);
      std::vector<Lv> bad(nl.gate_count(), Lv::kX);
      std::vector<LvPlane> planes(nl.gate_count());
      for (std::size_t combo = 0; combo < (std::size_t{1} << (4 * arity));
           ++combo) {
        for (std::size_t k = 0; k < arity; ++k) {
          good[fanin[k]] = kValues[(combo >> (4 * k)) & 3];
          bad[fanin[k]] = kValues[(combo >> (4 * k + 2)) & 3];
          planes[fanin[k]].set(0, good[fanin[k]]);
          planes[fanin[k]].set(1, bad[fanin[k]]);
        }
        const LvPlane out = evaluate_plane(type, fanin, planes);
        ASSERT_EQ(out.get(0), evaluate_combinational(nl, g, good))
            << gate_type_name(type) << "/" << arity << " combo " << combo;
        ASSERT_EQ(out.get(1), evaluate_combinational(nl, g, bad))
            << gate_type_name(type) << "/" << arity << " combo " << combo;
        ++checked;
      }
    }
  }
  // 16^arity combinations per case: the constants 2, BUF/NOT 2·16, the six
  // AND..XNOR at arity 2 and 3 6·(16² + 16³), MUX 16³, TRISTATE 16², BUS
  // 16 + 16² + 16³.
  EXPECT_EQ(checked, 34866u);
}

}  // namespace
}  // namespace xh
