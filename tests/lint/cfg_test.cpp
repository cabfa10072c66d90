// Tests for the per-function CFG builder and dataflow framework behind the
// flow-sensitive lint tier (DESIGN.md §13). The table-driven cases pin the
// lowering of each control construct at the shape level (node kinds,
// connectivity, loop-head marking); the self-scan asserts the builder
// survives the real repository — every function in src/ must lower to a
// connected CFG, the invariant the XH-FLOW rules depend on.
#include "lint/cfg.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/dataflow.hpp"
#include "lint/lint_core.hpp"
#include "lint/text_scan.hpp"

namespace fs = std::filesystem;

namespace {

using xh::lint::CfgNode;
using xh::lint::FunctionCfg;

std::vector<FunctionCfg> cfgs_of(const std::string& source) {
  return xh::lint::build_cfgs(xh::lint::clean(source));
}

FunctionCfg only_cfg(const std::string& source) {
  const auto cfgs = cfgs_of(source);
  EXPECT_EQ(cfgs.size(), 1u) << "expected exactly one function";
  return cfgs.empty() ? FunctionCfg{} : cfgs.front();
}

std::size_t count_kind(const FunctionCfg& cfg, CfgNode::Kind kind) {
  std::size_t n = 0;
  for (const auto& node : cfg.nodes) {
    if (node.kind == kind) ++n;
  }
  return n;
}

std::size_t count_loop_heads(const FunctionCfg& cfg) {
  std::size_t n = 0;
  for (const auto& node : cfg.nodes) {
    if (node.is_loop_head) ++n;
  }
  return n;
}

// ---- table-driven construct coverage ------------------------------------

struct ShapeCase {
  const char* label;
  const char* source;
  std::size_t returns;    // expected kReturn node count
  std::size_t loop_heads; // expected loop-head kCondition count
  std::size_t cases;      // expected kCase node count
};

const ShapeCase kShapeCases[] = {
    {"early return",
     "int f(int a) {\n"
     "  if (a < 0) {\n"
     "    return -1;\n"
     "  }\n"
     "  return a * 2;\n"
     "}\n",
     2, 0, 0},
    {"nested loops",
     "int sum(int n) {\n"
     "  int total = 0;\n"
     "  for (int i = 0; i < n; ++i) {\n"
     "    int j = 0;\n"
     "    while (j < i) {\n"
     "      total += j;\n"
     "      ++j;\n"
     "    }\n"
     "  }\n"
     "  return total;\n"
     "}\n",
     1, 2, 0},
    {"switch fallthrough",
     "int pick(int k) {\n"
     "  int v = 0;\n"
     "  switch (k) {\n"
     "    case 0:\n"
     "      v = 1;\n"
     "      break;\n"
     "    case 1:\n"
     "    case 2:\n"
     "      v = 2;\n"
     "      break;\n"
     "    default:\n"
     "      v = 3;\n"
     "  }\n"
     "  return v;\n"
     "}\n",
     1, 0, 4},
    {"ternary stays one statement",
     "int clamp(int a, int lo) {\n"
     "  const int r = a < lo ? lo : a;\n"
     "  return r;\n"
     "}\n",
     1, 0, 0},
    {"exception path",
     "int parse(const char* s) {\n"
     "  try {\n"
     "    if (s == nullptr) {\n"
     "      throw bad_input{};\n"
     "    }\n"
     "    return decode(s);\n"
     "  } catch (const bad_input& e) {\n"
     "    return -1;\n"
     "  }\n"
     "}\n",
     2, 0, 0},
    {"do-while",
     "int drain(Queue& q) {\n"
     "  int n = 0;\n"
     "  do {\n"
     "    ++n;\n"
     "  } while (q.pop());\n"
     "  return n;\n"
     "}\n",
     1, 1, 0},
};

TEST(CfgShapes, EveryConstructLowersConnected) {
  for (const ShapeCase& c : kShapeCases) {
    const FunctionCfg cfg = only_cfg(c.source);
    ASSERT_GE(cfg.nodes.size(), 2u) << c.label;
    EXPECT_TRUE(xh::lint::cfg_connected(cfg))
        << c.label << ":\n" << xh::lint::to_string(cfg);
    EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kReturn), c.returns) << c.label;
    EXPECT_EQ(count_loop_heads(cfg), c.loop_heads) << c.label;
    EXPECT_EQ(count_kind(cfg, CfgNode::Kind::kCase), c.cases) << c.label;
  }
}

TEST(CfgShapes, EarlyReturnSkipsTail) {
  const FunctionCfg cfg = only_cfg(
      "int f(int a) {\n"
      "  if (a < 0) {\n"
      "    return -1;\n"
      "  }\n"
      "  tail();\n"
      "  return 0;\n"
      "}\n");
  // The early return's only successor is the exit: the tail statement is
  // not on its path.
  for (const auto& node : cfg.nodes) {
    if (node.kind == CfgNode::Kind::kReturn) {
      ASSERT_EQ(node.succ.size(), 1u);
      EXPECT_EQ(node.succ.front(), FunctionCfg::kExit);
    }
  }
}

TEST(CfgShapes, SwitchFallthroughChainsCases) {
  const FunctionCfg cfg = only_cfg(
      "int pick(int k) {\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      first();\n"
      "    case 1:\n"
      "      second();\n"
      "      break;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  // `first()` falls through into `case 1`: some path visits both calls.
  std::size_t first_node = xh::lint::kCfgNone;
  std::size_t second_node = xh::lint::kCfgNone;
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    if (xh::lint::has_call(cfg.nodes[n].text, "first")) first_node = n;
    if (xh::lint::has_call(cfg.nodes[n].text, "second")) second_node = n;
  }
  ASSERT_NE(first_node, xh::lint::kCfgNone);
  ASSERT_NE(second_node, xh::lint::kCfgNone);
  const auto reach = xh::lint::reachable_from(cfg, first_node);
  EXPECT_TRUE(std::find(reach.begin(), reach.end(), second_node) !=
              reach.end())
      << xh::lint::to_string(cfg);
}

TEST(CfgShapes, UnboundedLoopIsMarked) {
  const FunctionCfg cfg = only_cfg(
      "void spin() {\n"
      "  for (;;) {\n"
      "    step();\n"
      "  }\n"
      "}\n");
  bool found = false;
  for (const auto& node : cfg.nodes) {
    if (node.is_loop_head) {
      EXPECT_TRUE(node.loop_unbounded);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CfgShapes, RangeForHeaderIsLoopHead) {
  const FunctionCfg cfg = only_cfg(
      "int total(const std::vector<int>& v) {\n"
      "  int t = 0;\n"
      "  for (const int x : v) {\n"
      "    t += x;\n"
      "  }\n"
      "  return t;\n"
      "}\n");
  ASSERT_EQ(count_loop_heads(cfg), 1u);
  for (const auto& node : cfg.nodes) {
    if (node.is_loop_head) {
      EXPECT_FALSE(node.loop_unbounded);
      EXPECT_NE(xh::lint::find_range_colon(node.text, 0), std::string::npos);
    }
  }
}

// ---- dataflow over the CFG ----------------------------------------------

TEST(CfgDataflow, GuardStateTracksScopeAndManualLocks) {
  const FunctionCfg cfg = only_cfg(
      "void f() {\n"
      "  unguarded();\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    guarded();\n"
      "  }\n"
      "  after();\n"
      "}\n");
  const xh::lint::GuardAnalysis ga = xh::lint::analyze_guards(cfg);
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    const std::string& text = cfg.nodes[n].text;
    if (xh::lint::has_call(text, "unguarded") ||
        xh::lint::has_call(text, "after")) {
      EXPECT_EQ(xh::lint::state_at(ga, cfg, n), xh::lint::GuardState::kUnlocked)
          << text;
    }
    if (xh::lint::has_call(text, "guarded")) {
      EXPECT_EQ(xh::lint::state_at(ga, cfg, n), xh::lint::GuardState::kLocked)
          << text;
    }
  }
}

TEST(CfgDataflow, CycleNodesEmptyOffLoop) {
  const FunctionCfg cfg = only_cfg(
      "int f(int n) {\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    body(i);\n"
      "  }\n"
      "  return n;\n"
      "}\n");
  std::size_t head = xh::lint::kCfgNone;
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    if (cfg.nodes[n].is_loop_head) head = n;
  }
  ASSERT_NE(head, xh::lint::kCfgNone);
  const auto cyc = xh::lint::cycle_nodes(cfg, head);
  EXPECT_FALSE(cyc.empty());
  // The trailing return is NOT on the cycle.
  for (const std::size_t n : cyc) {
    EXPECT_NE(cfg.nodes[n].kind, CfgNode::Kind::kReturn);
  }
}

TEST(CfgDataflow, NodiscardAutoFiresThroughFlowContext) {
  // The auto+[[nodiscard]] half of XH-FLOW-001 needs the project model's
  // symbol index; scan_file alone can't see it. Drive flow_findings with an
  // explicit FlowContext the way analyze_tree does.
  const xh::lint::SourceFile file{
      "src/service/example.cpp",
      "void f() {\n"
      "  const auto outcome = submit(1);\n"
      "}\n"};
  xh::lint::FlowContext flow;
  flow.nodiscard_functions.push_back("submit");
  const auto findings =
      xh::lint::flow_findings(file, xh::lint::clean(file.content), flow);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "XH-FLOW-001");
}

// ---- deliberate approximations, pinned ----------------------------------
// These cases document the CFG builder's stated simplifications (see the
// cfg.hpp header comment). If one of these starts failing, the
// approximation changed — update the header contract and every rule that
// leans on it, not just the test.

TEST(CfgApproximations, GotoIsNotModeled) {
  // `goto` lowers to a plain statement node and the label line to another;
  // no edge is created between them. The function must still lower and
  // stay connected (the label's node is reached by fallthrough).
  const FunctionCfg cfg = only_cfg(
      "int f(int n) {\n"
      "  if (n < 0) {\n"
      "    goto done;\n"
      "  }\n"
      "  work(n);\n"
      "done:\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(xh::lint::cfg_connected(cfg)) << xh::lint::to_string(cfg);
  // No node carries a goto-shaped edge: the statement containing `goto`
  // has only its fallthrough successor(s).
  for (const auto& node : cfg.nodes) {
    if (node.text.find("goto") != std::string::npos) {
      EXPECT_EQ(node.kind, CfgNode::Kind::kStatement) << node.text;
    }
  }
}

TEST(CfgApproximations, LambdaBodyIsOneOpaqueStatement) {
  // Control flow inside a lambda is invisible: the unbounded loop in the
  // body must NOT mark any loop head on the enclosing function's CFG, but
  // the body text stays attached to the statement node.
  const FunctionCfg cfg = only_cfg(
      "void f() {\n"
      "  auto task = [&] { for (;;) { spin(); } };\n"
      "  use(task);\n"
      "}\n");
  EXPECT_EQ(count_loop_heads(cfg), 0u) << xh::lint::to_string(cfg);
  bool body_attached = false;
  for (const auto& node : cfg.nodes) {
    if (node.text.find("spin") != std::string::npos) body_attached = true;
  }
  EXPECT_TRUE(body_attached);
}

TEST(CfgApproximations, ThrowEdgesToExitEvenWithAHandler) {
  // A throw inside try edges to the function exit, never to the enclosing
  // catch; the handler is additionally reachable from the try block. Both
  // directions are over-approximations the rules treat as may-reach.
  const FunctionCfg cfg = only_cfg(
      "int f() {\n"
      "  try {\n"
      "    throw Boom{};\n"
      "  } catch (const Boom& b) {\n"
      "    handle(b);\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  std::size_t throw_node = xh::lint::kCfgNone;
  std::size_t handler = xh::lint::kCfgNone;
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    if (cfg.nodes[n].kind == CfgNode::Kind::kThrow) throw_node = n;
    if (cfg.nodes[n].text.find("handle") != std::string::npos) handler = n;
  }
  ASSERT_NE(throw_node, xh::lint::kCfgNone) << xh::lint::to_string(cfg);
  ASSERT_NE(handler, xh::lint::kCfgNone) << xh::lint::to_string(cfg);
  const auto& succ = cfg.nodes[throw_node].succ;
  EXPECT_NE(std::find(succ.begin(), succ.end(), FunctionCfg::kExit),
            succ.end())
      << xh::lint::to_string(cfg);
  EXPECT_EQ(std::find(succ.begin(), succ.end(), handler), succ.end())
      << "throw must NOT edge into its handler: "
      << xh::lint::to_string(cfg);
}

// ---- self-scan over the real tree ---------------------------------------

TEST(CfgSelfScan, EverySrcFunctionLowersConnected) {
  const fs::path root = fs::path(XH_LINT_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::is_directory(root));
  std::size_t functions = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto cfgs = cfgs_of(ss.str());
    for (const FunctionCfg& cfg : cfgs) {
      ++functions;
      EXPECT_TRUE(xh::lint::cfg_connected(cfg))
          << entry.path() << " '" << cfg.name << "' (line " << cfg.line
          << "):\n"
          << xh::lint::to_string(cfg);
      EXPECT_GE(cfg.nodes.size(), 2u);
    }
  }
  // The tree has hundreds of functions; a collapse of the extractor to
  // near-zero would silently gut the flow tier, so pin a floor.
  EXPECT_GE(functions, 200u);
}

}  // namespace
