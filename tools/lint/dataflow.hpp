// Small dataflow framework over FunctionCfg for the flow-sensitive lint
// tier (DESIGN.md §13). Three facilities, each exactly as strong as the
// XH-FLOW rules need and no stronger:
//
//   * guard-state lattice — a forward worklist analysis over
//     {bottom, unlocked, locked, both}. Lexical scope_locks from the CFG
//     give the base state; explicit `.lock()` / `.unlock()` member calls
//     transition it flow-sensitively, and a `unique_lock&` parameter makes
//     the function entry state locked (the lock-reference-parameter
//     convention: the caller passes the lock held). XH-FLOW-003 fires on
//     guarded-field touches whose state is unlocked or both, and on posts
//     whose state is locked or both.
//
//   * path predicates — exists_path (target before any blocked node), the
//     reachability half of the reaching-definitions query XH-FLOW-001 asks
//     ("can this def reach a redefinition without passing a read?").
//
//   * cycle extraction — the nodes on some cycle through a loop head,
//     which is the path set XH-FLOW-002 must find a token consultation on.
//
// Plus the shared textual def/use classifiers the per-variable rules key
// off. They operate on the compact node text the CFG builder produced, at
// the same no-parse altitude as the rest of xh_lint.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "lint/cfg.hpp"

namespace xh::lint {

enum class GuardState {
  kBottom = 0,  // unreachable / not yet computed
  kUnlocked,
  kLocked,
  kBoth,  // locked on some incoming path, unlocked on another
};

GuardState join(GuardState a, GuardState b);

struct GuardAnalysis {
  /// True when the function receives the lock by reference
  /// (std::unique_lock& / lock_guard& parameter): entry state is locked.
  bool param_locked = false;
  std::vector<GuardState> in;
  std::vector<GuardState> out;
};

/// Forward worklist fixpoint of the guard-state lattice over @p cfg.
GuardAnalysis analyze_guards(const FunctionCfg& cfg);

/// Guard state governing the side effects of node @p n itself: the in
/// state, except that a node acquiring a lock (scope-guard declaration or
/// explicit .lock()) counts as locked for its own statement.
GuardState state_at(const GuardAnalysis& ga, const FunctionCfg& cfg,
                    std::size_t n);

/// Guard state held as node @p n starts: the in state, except outside
/// every enclosing guard scope. A lock the statement takes itself (even
/// one declared inside a lambda body it carries) does not count.
GuardState state_before(const GuardAnalysis& ga, const FunctionCfg& cfg,
                        std::size_t n);

/// Nodes lying on at least one cycle through @p head, head included:
/// forward-reachable from head AND backward-reachable to head. Empty when
/// head is not on any cycle.
std::vector<std::size_t> cycle_nodes(const FunctionCfg& cfg,
                                     std::size_t head);

/// True when some path from a successor of @p from reaches a node where
/// @p is_target holds without first entering a node where @p is_blocked
/// holds. A node that is both target and blocked counts as a target.
bool exists_path(const FunctionCfg& cfg, std::size_t from,
                 const std::function<bool(std::size_t)>& is_target,
                 const std::function<bool(std::size_t)>& is_blocked);

// ---- textual def/use classification ------------------------------------

/// True when the identifier at @p p in @p text is reached through member
/// access of ANOTHER object (`x.name`, `x->name`): such an occurrence is a
/// field of x that merely shares the local's name, not the local itself.
bool member_of_other(const std::string& text, std::size_t p);

/// True when @p text mentions @p name as a standalone identifier (member
/// fields of other objects that share the name do not count).
bool is_use(const std::string& text, const std::string& name);

/// True when @p text (re)defines @p name: a declaration (`Type name ...`,
/// `auto name = ...`) or a plain assignment (`name = ...`). Compound
/// assignments (`+=` etc.) read the old value and are NOT defs.
bool is_def(const std::string& text, const std::string& name);

/// True when @p text contains a member call `.name(` / `->name(` on any
/// object, e.g. has_member_call("token.stop_requested()", "stop_requested").
bool has_member_call(const std::string& text, const std::string& name);

}  // namespace xh::lint
