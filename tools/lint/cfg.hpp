// Per-function control-flow graphs for the flow-sensitive lint tier
// (DESIGN.md §13).
//
// build_cfgs() extracts every function definition from one Cleaned file and
// lowers its body into a small statement-level CFG — no full C++ parse, the
// same pragmatic token altitude as project_model. The extractor recognizes
// `name(params) [specifiers] [: init-list] {` definition heads (free
// functions, out-of-line members, constructors, gtest TEST bodies) and the
// lowering handles if/else, for/while/do loops, switch fallthrough,
// early return/break/continue, throw, try/catch and nested blocks.
//
// Deliberate approximations, chosen so the XH-FLOW rules stay sound enough
// to gate on (tests/lint/cfg_test.cpp pins each one):
//   * a lambda body is ONE statement of the enclosing function — control
//     flow inside it is invisible, but its text (and any lock it takes)
//     stays attached to that node;
//   * `throw` edges go to the function exit, never to an enclosing catch —
//     a may-reach-exit over-approximation (catch handlers are additionally
//     reachable from the start of their try block);
//   * `goto` is not modeled (the tree is goto-free; a goto statement lowers
//     to a plain node and the self-scan connectivity test would catch any
//     future unreachable-label damage).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/text_scan.hpp"

namespace xh::lint {

constexpr std::size_t kCfgNone = static_cast<std::size_t>(-1);

struct CfgNode {
  enum class Kind {
    kEntry,
    kExit,
    kStatement,  // simple statement (declaration, expression, lambda, ...)
    kCondition,  // if/while/for/switch/do-while controlling expression
    kCase,       // case/default label inside a switch
    kReturn,
    kBreak,
    kContinue,
    kThrow,
  };

  Kind kind = Kind::kStatement;
  std::size_t line = 0;       // 1-based first line of the statement
  std::size_t end_line = 0;   // 1-based last line
  std::string text;           // flattened statement/condition text
  std::vector<std::size_t> succ;

  /// Innermost loop this node belongs to: index of the controlling
  /// kCondition node, or kCfgNone outside any loop.
  std::size_t loop_head = kCfgNone;
  /// True for the kCondition node of a loop (for/while/do) as opposed to an
  /// if/switch condition.
  bool is_loop_head = false;
  /// Loop head of an unconditionally-true loop (`for(;;)`, `while(true)`).
  bool loop_unbounded = false;

  /// Lexical count of scope-based lock acquisitions (std::lock_guard,
  /// std::scoped_lock, std::unique_lock declarations) whose scope covers
  /// this node. The guard-state dataflow combines this with flow-sensitive
  /// .lock()/.unlock() transitions.
  int scope_locks = 0;
};

struct FunctionCfg {
  std::string name;       // unqualified function name ("run_next")
  std::string qualifier;  // enclosing-class qualifier for out-of-line
                          // members ("PartitionService"), else ""
  std::size_t line = 0;   // 1-based line of the definition head
  bool is_constructor = false;  // name == qualifier
  bool is_destructor = false;   // ~name
  std::string params;     // raw parameter-list text (between the parens)

  /// nodes[0] is always kEntry, nodes[1] always kExit.
  std::vector<CfgNode> nodes;

  static constexpr std::size_t kEntry = 0;
  static constexpr std::size_t kExit = 1;
};

/// Extracts every function definition in @p cleaned and builds its CFG.
/// Functions whose bodies fail to lower (unbalanced tokens from heavy
/// macrology) are skipped rather than guessed at.
std::vector<FunctionCfg> build_cfgs(const Cleaned& cleaned);

/// True when @p stmt declares a scope-based lock (std::lock_guard,
/// std::scoped_lock, std::unique_lock) at its own level, outside any lambda
/// body it carries: the declarations CfgNode::scope_locks counts.
bool declares_scope_lock(const std::string& stmt);

/// Node indices reachable from @p from (inclusive) following succ edges.
std::vector<std::size_t> reachable_from(const FunctionCfg& cfg,
                                        std::size_t from);

/// True when every node is reachable from entry and the exit is among
/// them — the self-scan invariant for real-tree functions.
bool cfg_connected(const FunctionCfg& cfg);

/// Debug rendering (one node per line) for test failure messages.
std::string to_string(const FunctionCfg& cfg);

}  // namespace xh::lint
