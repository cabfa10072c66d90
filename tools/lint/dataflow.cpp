#include "lint/dataflow.hpp"

#include <deque>

namespace xh::lint {
namespace {

/// A guard declaration anywhere in @p text, lambda bodies included: the
/// statement's own side effects (a posted lambda's among them) run under
/// it. declares_scope_lock() is the top-level subset that scopes later
/// statements.
bool text_declares_guard(const std::string& text) {
  for (const char* kind : {"lock_guard", "scoped_lock", "unique_lock"}) {
    const std::size_t p = find_ident(text, kind);
    if (p == std::string::npos) continue;
    if (text.find('(', p) != std::string::npos ||
        text.find('{', p) != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool acquires(const CfgNode& node) {
  return has_member_call(node.text, "lock") ||
         text_declares_guard(node.text);
}

bool releases(const CfgNode& node) {
  return has_member_call(node.text, "unlock");
}

}  // namespace

GuardState join(GuardState a, GuardState b) {
  if (a == GuardState::kBottom) return b;
  if (b == GuardState::kBottom) return a;
  if (a == b) return a;
  return GuardState::kBoth;
}

GuardAnalysis analyze_guards(const FunctionCfg& cfg) {
  GuardAnalysis ga;
  for (const char* kind : {"lock_guard", "scoped_lock", "unique_lock"}) {
    if (has_ident(cfg.params, kind)) ga.param_locked = true;
  }
  ga.in.assign(cfg.nodes.size(), GuardState::kBottom);
  ga.out.assign(cfg.nodes.size(), GuardState::kBottom);

  const auto transfer = [&](std::size_t n, GuardState in) {
    const CfgNode& node = cfg.nodes[n];
    if (n == FunctionCfg::kEntry) {
      return ga.param_locked ? GuardState::kLocked : GuardState::kUnlocked;
    }
    // Release wins over acquire within one statement: the only same-node
    // combination in practice is `cv.wait(lock)`-style code, which ends
    // held, so check acquire first — but an explicit unlock as the LAST
    // lock-ish token is a release. Per-statement granularity: classify by
    // whichever member call appears last.
    const bool acq = acquires(node);
    const bool rel = releases(node);
    if (acq && rel) {
      std::size_t last_lock = std::string::npos;
      std::size_t last_unlock = std::string::npos;
      for (std::size_t p = find_ident(node.text, "lock");
           p != std::string::npos; p = find_ident(node.text, "lock", p + 1)) {
        last_lock = p;
      }
      for (std::size_t p = find_ident(node.text, "unlock");
           p != std::string::npos;
           p = find_ident(node.text, "unlock", p + 1)) {
        last_unlock = p;
      }
      if (last_unlock != std::string::npos &&
          (last_lock == std::string::npos || last_unlock > last_lock)) {
        return GuardState::kUnlocked;
      }
      return GuardState::kLocked;
    }
    if (rel) return GuardState::kUnlocked;
    if (acq) return GuardState::kLocked;
    // Outside every guard scope (and with no lock parameter) any manual
    // state has died with its scope.
    if (node.scope_locks == 0 && !ga.param_locked) {
      return GuardState::kUnlocked;
    }
    return in;
  };

  std::deque<std::size_t> work = {FunctionCfg::kEntry};
  std::vector<bool> queued(cfg.nodes.size(), false);
  queued[FunctionCfg::kEntry] = true;
  while (!work.empty()) {
    const std::size_t n = work.front();
    work.pop_front();
    queued[n] = false;
    const GuardState out = transfer(n, ga.in[n]);
    if (out == ga.out[n] && ga.out[n] != GuardState::kBottom) continue;
    ga.out[n] = out;
    for (const std::size_t s : cfg.nodes[n].succ) {
      const GuardState merged = join(ga.in[s], out);
      if (merged != ga.in[s] || ga.out[s] == GuardState::kBottom) {
        ga.in[s] = merged;
        if (!queued[s]) {
          queued[s] = true;
          work.push_back(s);
        }
      }
    }
  }
  return ga;
}

GuardState state_at(const GuardAnalysis& ga, const FunctionCfg& cfg,
                    std::size_t n) {
  if (acquires(cfg.nodes[n])) return GuardState::kLocked;
  // Same scope-death rule as the transfer function: a locked in-state from
  // inside a guard scope does not survive past the scope's closing brace.
  if (cfg.nodes[n].scope_locks == 0 && !ga.param_locked &&
      !releases(cfg.nodes[n])) {
    return GuardState::kUnlocked;
  }
  return ga.in[n];
}

GuardState state_before(const GuardAnalysis& ga, const FunctionCfg& cfg,
                        std::size_t n) {
  const CfgNode& node = cfg.nodes[n];
  // The CFG counts a guard the statement declares in its own scope_locks.
  const int enclosing =
      node.scope_locks - (declares_scope_lock(node.text) ? 1 : 0);
  if (enclosing <= 0 && !ga.param_locked) return GuardState::kUnlocked;
  return ga.in[n];
}

std::vector<std::size_t> cycle_nodes(const FunctionCfg& cfg,
                                     std::size_t head) {
  const std::vector<std::size_t> fwd = reachable_from(cfg, head);
  // Backward reachability to head over the predecessor graph.
  std::vector<std::vector<std::size_t>> pred(cfg.nodes.size());
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    for (const std::size_t s : cfg.nodes[n].succ) pred[s].push_back(n);
  }
  std::vector<bool> back(cfg.nodes.size(), false);
  std::vector<std::size_t> stack = {head};
  back[head] = true;
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    for (const std::size_t p : pred[n]) {
      if (!back[p]) {
        back[p] = true;
        stack.push_back(p);
      }
    }
  }
  std::vector<std::size_t> out;
  for (const std::size_t n : fwd) {
    if (back[n]) out.push_back(n);
  }
  // A head with no cycle back to itself (e.g. a degenerate loop whose body
  // always breaks) reports empty rather than {head}.
  bool head_on_cycle = false;
  for (const std::size_t s : cfg.nodes[head].succ) {
    if (back[s]) head_on_cycle = true;
  }
  if (!head_on_cycle) return {};
  return out;
}

bool exists_path(const FunctionCfg& cfg, std::size_t from,
                 const std::function<bool(std::size_t)>& is_target,
                 const std::function<bool(std::size_t)>& is_blocked) {
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::vector<std::size_t> stack(cfg.nodes[from].succ.begin(),
                                 cfg.nodes[from].succ.end());
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    if (is_target(n)) return true;
    if (is_blocked(n)) continue;
    for (const std::size_t s : cfg.nodes[n].succ) stack.push_back(s);
  }
  return false;
}

// ---- textual def/use classification ------------------------------------

bool member_of_other(const std::string& text, std::size_t p) {
  std::size_t b = p;
  while (b > 0 && text[b - 1] == ' ') --b;
  if (b == 0) return false;
  if (text[b - 1] == '.') return true;
  return b >= 2 && text[b - 2] == '-' && text[b - 1] == '>';
}

bool is_use(const std::string& text, const std::string& name) {
  for (std::size_t p = find_ident(text, name); p != std::string::npos;
       p = find_ident(text, name, p + 1)) {
    if (!member_of_other(text, p)) return true;
  }
  return false;
}

namespace {

bool keyword_before_def(const std::string& word) {
  return word == "return" || word == "throw" || word == "delete" ||
         word == "co_return" || word == "case" || word == "new";
}

/// True when the occurrence of @p name at @p p in @p text declares or
/// plainly assigns it.
bool defines(const std::string& text, const std::string& name,
             std::size_t p) {
  // Look forward for `name =` (not ==, and not compound ops which read).
  std::size_t q = p + name.size();
  while (q < text.size() && text[q] == ' ') ++q;
  if (q < text.size() && text[q] == '=' &&
      (q + 1 >= text.size() || text[q + 1] != '=')) {
    return true;
  }
  // Look backward for a preceding type-ish token: identifier, `>`, `&`,
  // `*` — `Diagnostics diags`, `auto& d`, `Status* s`.
  std::size_t b = p;
  while (b > 0 && text[b - 1] == ' ') --b;
  if (b == 0) return false;
  const char c = text[b - 1];
  if (c == '&' && b >= 2 && text[b - 2] == '&') {
    // `cond && name` — logical-and, not an rvalue-reference declaration.
    // (Misreading a rare `T&& name` local as plain only loses a decl
    // classification; misreading `&& name` as a decl invents defs.)
    return false;
  }
  if (c == '>' || c == '&' || c == '*') return true;
  if (!is_ident_char(c)) return false;
  std::size_t wb = b;
  while (wb > 0 && is_ident_char(text[wb - 1])) --wb;
  return !keyword_before_def(text.substr(wb, b - wb));
}

}  // namespace

bool is_def(const std::string& text, const std::string& name) {
  for (std::size_t p = find_ident(text, name); p != std::string::npos;
       p = find_ident(text, name, p + 1)) {
    if (member_of_other(text, p)) continue;
    if (defines(text, name, p)) return true;
  }
  return false;
}

bool has_member_call(const std::string& text, const std::string& name) {
  for (std::size_t p = find_ident(text, name); p != std::string::npos;
       p = find_ident(text, name, p + 1)) {
    if (p == 0) continue;
    const char before = text[p - 1];
    const bool member =
        before == '.' || (p >= 2 && text[p - 2] == '-' && before == '>');
    if (!member) continue;
    std::size_t q = p + name.size();
    while (q < text.size() && text[q] == ' ') ++q;
    if (q < text.size() && text[q] == '(') return true;
  }
  return false;
}

}  // namespace xh::lint
