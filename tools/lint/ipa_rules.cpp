// Interprocedural rule families (DESIGN.md §13): XH-IPA-001/002 and
// XH-RACE-001/002 over the whole-model call graph and per-function
// summaries. Unlike the flow tier these rules reason ACROSS function
// boundaries — a discarded status is a bug even when the status type is
// only visible in the callee's signature, and the service/thread-pool
// seam (what a posted callable captures, consults and locks) is invisible
// to any single function's CFG.
//
// Findings are RAW (suppressions not applied); analyze_tree merges them
// into the per-path raw sets so the XH-SUP-001 audit sees them.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint_core.hpp"
#include "lint/project_model.hpp"
#include "lint/summaries.hpp"
#include "lint/text_scan.hpp"

namespace xh::lint {
namespace {

void report(std::vector<Finding>& out, const std::string& path,
            std::size_t line, const std::string& rule,
            const std::string& message) {
  out.push_back({path, line, rule, message});
}

// ---- XH-IPA-001: status-bearing result discarded across a call ---------
//
// A bare-statement call `helper();` whose every resolved target returns a
// status-like type (xh::Diagnostics, *Status, *Result, ...) throws the
// outcome away. The compiler rejects a discarded [[nodiscard]] result
// under -Werror; this rule works from the callee's actual signature, so it
// catches the transitive case where neither caller nor callsite mentions
// the type.

/// Parses @p text as exactly one call statement (`chain(...)` with the
/// argument list closing at the end) and returns the called identifier,
/// or "" when the statement has any other shape. `(void)`-prefixed casts
/// are deliberate discards and return "".
std::string bare_call_callee(const std::string& text) {
  std::string t = text;
  while (!t.empty() && (t.back() == ';' || t.back() == ' ')) t.pop_back();
  if (t.empty() || starts_with(t, "(void)")) return "";
  std::size_t p = 0;
  if (!is_ident_char(t[0]) || (t[0] >= '0' && t[0] <= '9')) return "";
  std::string last;
  while (p < t.size() && is_ident_char(t[p])) ++p;
  last = t.substr(0, p);
  while (true) {
    if (p + 1 < t.size() && t[p] == ':' && t[p + 1] == ':') {
      p += 2;
    } else if (p < t.size() && t[p] == '.') {
      p += 1;
    } else if (p + 1 < t.size() && t[p] == '-' && t[p + 1] == '>') {
      p += 2;
    } else {
      break;
    }
    const std::size_t b = p;
    while (p < t.size() && is_ident_char(t[p])) ++p;
    if (p == b) return "";
    last = t.substr(b, p - b);
  }
  while (p < t.size() && t[p] == ' ') ++p;
  if (p >= t.size() || t[p] != '(') return "";
  int depth = 0;
  for (; p < t.size(); ++p) {
    if (t[p] == '(') ++depth;
    if (t[p] == ')' && --depth == 0) {
      return p + 1 == t.size() ? last : "";
    }
  }
  return "";
}

void rule_ipa001(const CallGraph& cg, const SummarySet& sums,
                 const ProjectModel& model, std::vector<Finding>& out) {
  for (const CgFunction& fn : cg.functions) {
    for (std::size_t n = 0; n < fn.cfg.nodes.size(); ++n) {
      const CfgNode& node = fn.cfg.nodes[n];
      if (node.kind != CfgNode::Kind::kStatement) continue;
      const std::string callee = bare_call_callee(node.text);
      if (callee.empty()) continue;
      // A discarded [[nodiscard]] result is already a -Werror error.
      if (model.symbols.nodiscard.count(callee) != 0) continue;
      for (const CallSite& site : fn.calls) {
        if (site.node != n || site.callee != callee || site.deferred ||
            site.targets.empty()) {
          continue;
        }
        bool all_status = true;
        for (const std::size_t t : site.targets) {
          all_status = all_status && sums.summaries[t].returns_status;
        }
        if (!all_status) break;
        const CgFunction& target = cg.functions[site.targets.front()];
        report(out, fn.path, node.line, "XH-IPA-001",
               "result of '" + target.display + "' (returns '" +
                   target.cfg.return_type +
                   "') is discarded; check it or cast to (void) to "
                   "acknowledge the drop");
        break;
      }
    }
  }
}

// ---- XH-IPA-002: blockable posted callable never consults the token ----
//
// A callable handed to ThreadPool::post from a function that HAS a
// CancelToken in scope, where the callable (or what it calls) can block
// but neither the body nor any resolved deferred callee ever consults a
// token: shutdown/cancel cannot interrupt it.

bool body_consults(const std::string& body,
                   const std::vector<std::string>& tokens) {
  if (has_member_call(body, "stop_requested") ||
      has_member_call(body, "expired")) {
    return true;
  }
  for (const std::string& tok : tokens) {
    if (is_use(body, tok)) return true;
  }
  return false;
}

void rule_ipa002(const CallGraph& cg, const SummarySet& sums,
                 std::vector<Finding>& out) {
  for (const CgFunction& fn : cg.functions) {
    const std::vector<std::string> tokens = token_names(fn.cfg);
    if (tokens.empty()) continue;
    for (std::size_t n = 0; n < fn.cfg.nodes.size(); ++n) {
      const CfgNode& node = fn.cfg.nodes[n];
      if (!has_member_call(node.text, "post")) continue;
      const std::vector<LambdaInfo> lambdas = lambdas_in(node.text);
      if (lambdas.empty()) continue;
      const LambdaInfo& l = lambdas.front();
      const std::string body =
          node.text.substr(l.body_begin, l.body_end - l.body_begin);
      if (body_consults(body, tokens)) continue;
      bool consults_via_callee = false;
      bool blockable = blocking_text(body);
      for (const CallSite& site : fn.calls) {
        if (site.node != n || !site.deferred) continue;
        for (const std::size_t t : site.targets) {
          if (sums.summaries[t].consults_token) consults_via_callee = true;
          if (sums.summaries[t].can_block) blockable = true;
        }
      }
      if (consults_via_callee || !blockable) continue;
      report(out, fn.path, node.line, "XH-IPA-002",
             "callable posted from '" + fn.display +
                 "' can block but never consults the in-scope CancelToken "
                 "'" + tokens.front() +
                 "'; cancellation cannot interrupt it");
    }
  }
}

// ---- XH-RACE-001: posted callable captures a dying local by reference --
//
// `pool.post([&x]{...})` where x is a local/parameter of the posting
// function and some CFG path reaches the function exit without passing a
// drain/join barrier: the callable can run after x's storage is gone.

bool barrier_node(const CfgNode& node) {
  for (const char* b : {"drain", "join", "wait_all", "wait", "wait_for",
                        "wait_until"}) {
    if (has_ident(node.text, b)) return true;
  }
  return false;
}

/// Local variable and parameter names of @p fn (fields — trailing
/// underscore by repo convention — excluded).
std::set<std::string> frame_names(const FunctionCfg& cfg) {
  std::set<std::string> out;
  // Parameters: last identifier of each comma-separated declarator.
  std::size_t start = 0;
  int depth = 0;
  const std::string params = cfg.params;
  for (std::size_t i = 0; i <= params.size(); ++i) {
    if (i == params.size() || (params[i] == ',' && depth == 0)) {
      const std::string piece = params.substr(start, i - start);
      std::size_t e = piece.size();
      while (e > 0 && piece[e - 1] == ' ') --e;
      std::size_t b = e;
      while (b > 0 && is_ident_char(piece[b - 1])) --b;
      if (b < e) out.insert(piece.substr(b, e - b));
      start = i + 1;
    } else if (params[i] == '(' || params[i] == '<') {
      ++depth;
    } else if (params[i] == ')' || params[i] == '>') {
      --depth;
    }
  }
  // Locals: identifiers governed by a type word in a statement node.
  for (const CfgNode& node : cfg.nodes) {
    if (node.kind != CfgNode::Kind::kStatement) continue;
    const std::string& t = node.text;
    std::size_t i = 0;
    while (i < t.size()) {
      if (!is_ident_char(t[i])) {
        ++i;
        continue;
      }
      std::size_t e = i;
      while (e < t.size() && is_ident_char(t[e])) ++e;
      const std::string word = t.substr(i, e - i);
      const std::string type = type_word_before(t, i);
      if (!type.empty() && type != "return" && type != "else" &&
          type != "case" && type != "new" && type != "delete" &&
          type != "throw" && type != "const" &&
          !(e < t.size() && t[e] == '(')) {
        out.insert(word);
      }
      i = e;
    }
  }
  std::set<std::string> filtered;
  for (const std::string& name : out) {
    if (!name.empty() && name.back() != '_' && name != "this") {
      filtered.insert(name);
    }
  }
  return filtered;
}

void rule_race001(const CallGraph& cg, std::vector<Finding>& out) {
  for (const CgFunction& fn : cg.functions) {
    std::set<std::string> frame;
    bool frame_ready = false;
    for (std::size_t n = 0; n < fn.cfg.nodes.size(); ++n) {
      const CfgNode& node = fn.cfg.nodes[n];
      if (!has_member_call(node.text, "post")) continue;
      const std::vector<LambdaInfo> lambdas = lambdas_in(node.text);
      if (lambdas.empty()) continue;
      if (!frame_ready) {
        frame = frame_names(fn.cfg);
        frame_ready = true;
      }
      const LambdaInfo& l = lambdas.front();
      const std::string caps =
          node.text.substr(l.cap_begin, l.cap_end - l.cap_begin);
      const std::string body =
          node.text.substr(l.body_begin, l.body_end - l.body_begin);
      // Captured-by-reference frame names.
      std::vector<std::string> hazards;
      bool default_ref = false;
      std::size_t start = 0;
      for (std::size_t i = 0; i <= caps.size(); ++i) {
        if (i != caps.size() && caps[i] != ',') continue;
        std::string entry = caps.substr(start, i - start);
        start = i + 1;
        std::size_t b = 0, e = entry.size();
        while (b < e && entry[b] == ' ') ++b;
        while (e > b && entry[e - 1] == ' ') --e;
        entry = entry.substr(b, e - b);
        if (entry == "&") {
          default_ref = true;
        } else if (!entry.empty() && entry[0] == '&' &&
                   entry.find('=') == std::string::npos) {
          const std::string name = entry.substr(1);
          if (frame.count(name) != 0) hazards.push_back(name);
        }
      }
      if (default_ref) {
        for (const std::string& name : frame) {
          if (is_use(body, name)) hazards.push_back(name);
        }
      }
      if (hazards.empty()) continue;
      // Safe only when EVERY path from the post to the exit crosses a
      // drain/join barrier (then the frame outlives the callable).
      const bool escapes = may_reach_exit(
          fn.cfg, n,
          [&](std::size_t v) { return barrier_node(fn.cfg.nodes[v]); });
      if (!escapes) continue;
      report(out, fn.path, node.line, "XH-RACE-001",
             "callable posted from '" + fn.display +
                 "' captures local '" + hazards.front() +
                 "' by reference, and a path reaches the end of its scope "
                 "without a drain/join barrier");
    }
  }
}

// ---- XH-RACE-002: lock-order inversion / lock held across a post -------
//
// (a) Two functions (or paths) establish opposite nested acquisition
//     orders (A before B somewhere, B before A elsewhere): the classic
//     ABBA deadlock. Orders come from the summaries' witness list, which
//     includes pairs formed by CALLING a locking function while holding.
// (b) A callable is posted while a mutex is must-held and a resolved
//     deferred target re-acquires that same mutex: the callable
//     serializes against (or deadlocks with) its own posting scope.

void rule_race002(const CallGraph& cg, const SummarySet& sums,
                  std::vector<Finding>& out) {
  // (a) global inversions.
  std::map<std::pair<std::string, std::string>, const LockPairWitness*>
      first;
  for (const LockPairWitness& w : sums.witnesses) {
    first.emplace(std::make_pair(w.outer, w.inner), &w);
  }
  for (const auto& [pair, w] : first) {
    const auto rev = first.find({pair.second, pair.first});
    if (rev == first.end()) continue;
    // Report each direction at its own witness; the reverse direction
    // produces the matching finding at the other site.
    report(out, w->path, w->line, "XH-RACE-002",
           "lock-order inversion: '" + pair.first + "' is held while '" +
               pair.second + "' is acquired in '" + w->function +
               "', but the opposite order exists at " + rev->second->path +
               ":" + std::to_string(rev->second->line) + " ('" +
               rev->second->function + "')");
  }

  // (b) post under lock re-acquired by the posted work.
  for (std::size_t f = 0; f < cg.functions.size(); ++f) {
    const CgFunction& fn = cg.functions[f];
    std::vector<std::set<std::string>> held;
    bool held_ready = false;
    for (std::size_t n = 0; n < fn.cfg.nodes.size(); ++n) {
      if (!has_member_call(fn.cfg.nodes[n].text, "post")) continue;
      if (!held_ready) {
        held = must_hold(fn);
        held_ready = true;
      }
      if (held[n].empty()) continue;
      for (const CallSite& site : fn.calls) {
        if (site.node != n || !site.deferred) continue;
        for (const std::size_t t : site.targets) {
          for (const std::string& mu :
               sums.summaries[t].locks_acquired) {
            if (held[n].count(mu) == 0) continue;
            report(out, fn.path, fn.cfg.nodes[n].line, "XH-RACE-002",
                   "'" + fn.display + "' posts a callable while holding '" +
                       mu + "', and the posted work ('" +
                       cg.functions[t].display +
                       "') re-acquires it; move the post outside the "
                       "locked scope");
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<Finding> ipa_findings(const ProjectModel& model) {
  const CallGraph cg = build_call_graph(model);
  const SummarySet sums = compute_summaries(cg);
  std::vector<Finding> out;
  rule_ipa001(cg, sums, model, out);
  rule_ipa002(cg, sums, out);
  rule_race001(cg, out);
  rule_race002(cg, sums, out);
  return out;
}

}  // namespace xh::lint
