// Flow-sensitive rule families XH-FLOW-001..003 (DESIGN.md §13).
//
// Each rule is a query over the per-function CFGs (cfg.hpp) using the
// dataflow framework (dataflow.hpp). They run per file — from scan_file()
// for the corpus and from analyze_tree() with the project model's
// [[nodiscard]] index attached — and return RAW findings so the tree-wide
// suppression audit (XH-SUP-001) sees them like every other family.
#include <algorithm>
#include <array>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint_core.hpp"
#include "lint/text_scan.hpp"

namespace xh::lint {
namespace {

std::size_t ident_count(const std::string& text, const std::string& name) {
  std::size_t count = 0;
  for (std::size_t p = find_ident(text, name); p != std::string::npos;
       p = find_ident(text, name, p + 1)) {
    if (!member_of_other(text, p)) ++count;
  }
  return count;
}

/// A statement that overwrites @p name without reading it: `name = ...`
/// where name occurs exactly once (so `s = f(s)` is a read, not a kill).
bool pure_redef(const std::string& text, const std::string& name) {
  return is_def(text, name) && ident_count(text, name) == 1;
}

/// True when @p word is a status-bearing type name: xh::Diagnostics or the
/// *Status/*Outcome/*Result/*Errc naming convention.
bool status_type(const std::string& word) {
  return word == "Diagnostics" || ends_with(word, "Status") ||
         ends_with(word, "Outcome") || ends_with(word, "Result") ||
         ends_with(word, "Errc");
}

/// The type token governing the identifier at @p p in compacted @p text:
/// the word reached by scanning back over `&`, `*`, spaces and one `<...>`
/// argument list, e.g. "Status" for `Status s`, `StatusOr<int>& s`. Empty
/// when none.
std::string type_word_before(const std::string& text, std::size_t p) {
  std::size_t b = p;
  const auto skip_back_ws = [&] {
    while (b > 0 && text[b - 1] == ' ') --b;
  };
  skip_back_ws();
  while (b > 0 && (text[b - 1] == '&' || text[b - 1] == '*')) {
    --b;
    skip_back_ws();
  }
  if (b > 0 && text[b - 1] == '>') {
    int depth = 0;
    while (b > 0) {
      if (text[b - 1] == '>') ++depth;
      if (text[b - 1] == '<' && --depth == 0) {
        --b;
        break;
      }
      --b;
    }
    skip_back_ws();
  }
  std::size_t wb = b;
  while (wb > 0 && is_ident_char(text[wb - 1])) --wb;
  return text.substr(wb, b - wb);
}

/// True when @p text contains a blocking call identifier (sleep_ns,
/// sleep_for/until, wait/wait_for/wait_until, usleep, nanosleep).
bool blocking_text(const std::string& text) {
  static const char* const kBlocking[] = {
      "sleep_ns",  "sleep_for", "sleep_until", "wait",
      "wait_for",  "wait_until", "usleep",     "nanosleep"};
  for (const char* fn : kBlocking) {
    if (has_ident(text, fn)) return true;
  }
  return false;
}

/// CancelToken variable names in scope of @p cfg: parameters and locals of
/// (const) CancelToken(&/*) type, declaration order, deduplicated.
std::vector<std::string> token_names(const FunctionCfg& cfg) {
  std::vector<std::string> names;
  const auto harvest = [&](const std::string& text) {
    for (std::size_t p = find_ident(text, "CancelToken");
         p != std::string::npos;
         p = find_ident(text, "CancelToken", p + 1)) {
      std::size_t q = p + 11;  // strlen("CancelToken")
      while (q < text.size() &&
             (text[q] == ' ' || text[q] == '&' || text[q] == '*')) {
        ++q;
      }
      std::size_t e = q;
      while (e < text.size() && is_ident_char(text[e])) ++e;
      if (e == q) continue;
      const std::string name = text.substr(q, e - q);
      if (name == "const") continue;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  };
  harvest(cfg.params);
  for (const CfgNode& node : cfg.nodes) harvest(node.text);
  return names;
}

struct FlowRuleContext {
  const SourceFile* file = nullptr;
  const std::vector<FunctionCfg>* cfgs = nullptr;
  const FlowContext* flow = nullptr;
  std::vector<Finding>* out = nullptr;
};

void report(const FlowRuleContext& ctx, std::size_t line,
            const std::string& rule, const std::string& message) {
  ctx.out->push_back({ctx.file->path, line, rule, message});
}

// ---- XH-FLOW-001: status value discarded/overwritten before checked ----

void rule_flow001(const FlowRuleContext& ctx) {
  for (const FunctionCfg& cfg : *ctx.cfgs) {
    for (std::size_t d = 0; d < cfg.nodes.size(); ++d) {
      const CfgNode& node = cfg.nodes[d];
      if (node.kind != CfgNode::Kind::kStatement) continue;
      // Candidate: `StatusType name ...` declaration, or `auto name =`
      // initialized from a [[nodiscard]] project function.
      const std::string& text = node.text;
      std::size_t p = 0;
      while (p < text.size()) {
        if (!is_ident_char(text[p]) || (p > 0 && is_ident_char(text[p - 1]))) {
          ++p;
          continue;
        }
        std::size_t q = p;
        while (q < text.size() && is_ident_char(text[q])) ++q;
        const std::string name = text.substr(p, q - p);
        const std::size_t at = p;
        p = q;
        // The declared variable must be INITIALIZED — `= expr`, `(args)`
        // or `{args}` with a non-empty argument list. A bare `Type name;`
        // (default-constructed collector awaiting later assignment, the
        // idiomatic out-param pattern) is not a discarded value.
        std::size_t after = q;
        while (after < text.size() && text[after] == ' ') ++after;
        const char nxt = after < text.size() ? text[after] : ';';
        std::size_t init = after + 1;
        while (init < text.size() && text[init] == ' ') ++init;
        const char first_init = init < text.size() ? text[init] : '\0';
        bool decl_shape = false;
        if (nxt == '=' && first_init != '=') {
          // `auto f = [&] {...}` declares a lambda, not a status value.
          decl_shape = first_init != '[';
        } else if (nxt == '(' || nxt == '{') {
          decl_shape = first_init != (nxt == '(' ? ')' : '}');
        }
        if (!decl_shape) continue;
        // Pointer/reference declarations alias a value someone else owns
        // checking it is that owner's responsibility, not this binding's.
        std::size_t tb = at;
        while (tb > 0 && text[tb - 1] == ' ') --tb;
        if (tb > 0 && (text[tb - 1] == '*' || text[tb - 1] == '&')) continue;
        // A second mention inside the same statement node is a read: the
        // `x = f(x)` shape, or a decl+use merged into one node by the
        // one-statement lambda approximation (cfg.hpp).
        if (ident_count(text, name) > 1) continue;
        const std::string type = type_word_before(text, at);
        bool candidate = status_type(type);
        if (!candidate && type == "auto" && ctx.flow != nullptr) {
          for (const std::string& fn : ctx.flow->nodiscard_functions) {
            if (has_call(text, fn) || has_member_call(text, fn)) {
              candidate = true;
              break;
            }
          }
        }
        if (!candidate) continue;

        const auto mentions = [&](std::size_t n) {
          return n != d && is_use(cfg.nodes[n].text, name);
        };
        // "Never read" is whole-reachability, not per-path: a read inside
        // a loop body counts even though a zero-trip path skips it.
        bool mentioned = false;
        for (const std::size_t n : reachable_from(cfg, d)) {
          if (mentions(n)) {
            mentioned = true;
            break;
          }
        }
        if (!mentioned) {
          report(ctx, node.line, "XH-FLOW-001",
                 "'" + name + "' (" + (type == "auto" ? "nodiscard" : type) +
                     ") is never read after this initialization in '" +
                     cfg.name + "' — check or propagate it");
        } else if (exists_path(
                       cfg, d,
                       [&](std::size_t n) {
                         return n != d && pure_redef(cfg.nodes[n].text, name);
                       },
                       mentions)) {
          report(ctx, node.line, "XH-FLOW-001",
                 "'" + name + "' (" + (type == "auto" ? "nodiscard" : type) +
                     ") is overwritten on some path through '" + cfg.name +
                     "' before being read");
        }
      }
    }
  }
}

// ---- XH-FLOW-002: blocking loop never consults its CancelToken ----------

void rule_flow002(const FlowRuleContext& ctx) {
  for (const FunctionCfg& cfg : *ctx.cfgs) {
    const std::vector<std::string> tokens = token_names(cfg);
    if (tokens.empty()) continue;
    const auto consults = [&](std::size_t n) {
      for (const std::string& t : tokens) {
        if (is_use(cfg.nodes[n].text, t)) return true;
      }
      return false;
    };
    for (std::size_t h = 0; h < cfg.nodes.size(); ++h) {
      if (!cfg.nodes[h].is_loop_head) continue;
      const std::vector<std::size_t> cyc = cycle_nodes(cfg, h);
      if (cyc.empty()) continue;
      bool can_block = cfg.nodes[h].loop_unbounded;
      for (const std::size_t n : cyc) {
        if (blocking_text(cfg.nodes[n].text)) can_block = true;
      }
      if (!can_block) continue;
      if (consults(h)) continue;  // every cycle passes the head
      std::vector<bool> in_cycle(cfg.nodes.size(), false);
      for (const std::size_t n : cyc) in_cycle[n] = true;
      const bool unguarded_cycle = exists_path(
          cfg, h, [&](std::size_t n) { return n == h; },
          [&](std::size_t n) { return !in_cycle[n] || consults(n); });
      if (unguarded_cycle) {
        report(ctx, cfg.nodes[h].line, "XH-FLOW-002",
               "loop in '" + cfg.name +
                   "' can block (sleep/wait or unbounded) but some "
                   "iteration path never consults CancelToken '" +
                   tokens.front() +
                   "' — check stop_requested()/expired() or pass the token "
                   "down on every cycle");
      }
    }
  }
}

// ---- XH-FLOW-003: mutex-guard discipline and posts under a lock --------

/// True when @p text mutates @p name: an assignment/compound-assignment or
/// ++/-- applied to it (possibly through a .member/[index] chain), or a
/// mutating container member call on it.
bool mutates(const std::string& text, const std::string& name) {
  static const std::array<const char*, 12> kMutatingCalls = {
      "push_back", "pop_back", "push_front", "pop_front", "insert",
      "emplace",   "emplace_back", "erase",  "clear",     "resize",
      "assign",    "reset"};
  for (std::size_t p = find_ident(text, name); p != std::string::npos;
       p = find_ident(text, name, p + 1)) {
    if (p >= 2 && ((text[p - 1] == '+' && text[p - 2] == '+') ||
                   (text[p - 1] == '-' && text[p - 2] == '-'))) {
      return true;
    }
    std::size_t q = p + name.size();
    // Walk the member/index chain.
    std::string last_member;
    for (;;) {
      while (q < text.size() && text[q] == ' ') ++q;
      if (q < text.size() && text[q] == '.') {
        ++q;
      } else if (q + 1 < text.size() && text[q] == '-' &&
                 text[q + 1] == '>') {
        q += 2;
      } else if (q < text.size() && text[q] == '[') {
        int depth = 0;
        while (q < text.size()) {
          if (text[q] == '[') ++depth;
          if (text[q] == ']' && --depth == 0) {
            ++q;
            break;
          }
          ++q;
        }
        continue;
      } else {
        break;
      }
      while (q < text.size() && text[q] == ' ') ++q;
      std::size_t e = q;
      while (e < text.size() && is_ident_char(text[e])) ++e;
      last_member = text.substr(q, e - q);
      q = e;
    }
    // Mutating member call: `name.push_back(...)`.
    if (!last_member.empty()) {
      std::size_t after = q;
      while (after < text.size() && text[after] == ' ') ++after;
      if (after < text.size() && text[after] == '(') {
        for (const char* call : kMutatingCalls) {
          if (last_member == call) return true;
        }
        continue;  // non-mutating member call
      }
    }
    while (q < text.size() && text[q] == ' ') ++q;
    if (q >= text.size()) continue;
    const char c = text[q];
    if (c == '=' && (q + 1 >= text.size() || text[q + 1] != '=')) {
      return true;
    }
    if ((c == '+' || c == '-') && q + 1 < text.size() &&
        text[q + 1] == c) {
      return true;  // postfix ++/--
    }
    static const std::array<const char*, 10> kCompound = {
        "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="};
    for (const char* op : kCompound) {
      if (text.compare(q, std::string(op).size(), op) == 0) return true;
    }
  }
  return false;
}

/// Collects trailing-underscore identifiers mentioned in @p text.
std::set<std::string> field_idents(const std::string& text) {
  std::set<std::string> out;
  std::size_t p = 0;
  while (p < text.size()) {
    if (!is_ident_char(text[p]) || (p > 0 && is_ident_char(text[p - 1]))) {
      ++p;
      continue;
    }
    std::size_t q = p;
    while (q < text.size() && is_ident_char(text[q])) ++q;
    if (text[q - 1] == '_' && q - p > 1) out.insert(text.substr(p, q - p));
    p = q;
  }
  return out;
}

void rule_flow003(const FlowRuleContext& ctx) {
  // Pass 1: fields written while the guard state is locked (outside
  // constructors/destructors) are "guarded fields"; fields with atomic
  // member calls anywhere in the file are exempt (they synchronize
  // themselves).
  std::set<std::string> guarded;
  std::set<std::string> atomic_like;
  std::vector<GuardAnalysis> analyses;
  analyses.reserve(ctx.cfgs->size());
  for (const FunctionCfg& cfg : *ctx.cfgs) {
    analyses.push_back(analyze_guards(cfg));
  }
  for (std::size_t f = 0; f < ctx.cfgs->size(); ++f) {
    const FunctionCfg& cfg = (*ctx.cfgs)[f];
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const std::string& text = cfg.nodes[n].text;
      for (const std::string& field : field_idents(text)) {
        for (const char* call :
             {"load", "store", "fetch_add", "fetch_sub", "exchange",
              "compare_exchange_weak", "compare_exchange_strong"}) {
          const std::size_t p = find_ident(text, field);
          if (p != std::string::npos &&
              text.compare(p + field.size(), std::string(".") .size() +
                           std::string(call).size(),
                           "." + std::string(call)) == 0) {
            atomic_like.insert(field);
          }
        }
      }
      if (cfg.is_constructor || cfg.is_destructor) continue;
      if (state_at(analyses[f], cfg, n) != GuardState::kLocked) continue;
      for (const std::string& field : field_idents(text)) {
        if (mutates(text, field)) guarded.insert(field);
      }
    }
  }
  for (const std::string& field : atomic_like) guarded.erase(field);

  // Pass 2: any touch of a guarded field on an unlocked (or mixed) path,
  // and any post made while a lock may be held.
  for (std::size_t f = 0; f < ctx.cfgs->size(); ++f) {
    const FunctionCfg& cfg = (*ctx.cfgs)[f];
    const GuardAnalysis& ga = analyses[f];
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      const CfgNode& node = cfg.nodes[n];
      // The posted work runs on a pool thread: when it takes the same
      // mutex it contends with (or, run inline, deadlocks against) the
      // posting scope.
      const GuardState held = state_before(ga, cfg, n);
      if (has_member_call(node.text, "post") &&
          (held == GuardState::kLocked || held == GuardState::kBoth)) {
        report(ctx, node.line, "XH-FLOW-003",
               "callable posted in '" + cfg.name + "' while a lock " +
                   (held == GuardState::kBoth ? "may be" : "is") +
                   " held — post after the lock's scope ends");
      }
      if (cfg.is_constructor || cfg.is_destructor) continue;
      const GuardState st = state_at(ga, cfg, n);
      if (st != GuardState::kUnlocked && st != GuardState::kBoth) continue;
      for (const std::string& field : field_idents(node.text)) {
        if (guarded.count(field) == 0) continue;
        report(ctx, node.line, "XH-FLOW-003",
               "'" + field + "' is written under a lock elsewhere in this "
               "file but touched " +
                   (st == GuardState::kBoth ? "on a path that may not hold"
                                            : "without") +
                   " the lock in '" + cfg.name + "'");
      }
    }
  }
}

}  // namespace

std::vector<Finding> flow_findings(const SourceFile& file,
                                   const Cleaned& cleaned,
                                   const FlowContext& flow) {
  if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/") &&
      !starts_with(file.path, "bench/")) {
    return {};
  }
  const std::vector<FunctionCfg> cfgs = build_cfgs(cleaned);
  std::vector<Finding> out;
  FlowRuleContext ctx;
  ctx.file = &file;
  ctx.cfgs = &cfgs;
  ctx.flow = &flow;
  ctx.out = &out;
  rule_flow001(ctx);
  rule_flow002(ctx);
  rule_flow003(ctx);
  return out;
}

}  // namespace xh::lint
