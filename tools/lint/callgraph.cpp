#include "lint/callgraph.hpp"

#include <set>

#include "lint/text_scan.hpp"

namespace xh::lint {
namespace {

// Identifiers that look like calls lexically but never are (control-flow
// heads, cast/query operators), or that we refuse to treat as project
// calls (macro invocations are ALL_CAPS by repo convention).
bool call_keyword(const std::string& w) {
  static const std::set<std::string> kw = {
      "if",          "for",        "while",        "switch",
      "return",      "co_return",  "co_await",     "co_yield",
      "sizeof",      "alignof",    "decltype",     "noexcept",
      "catch",       "new",        "delete",       "throw",
      "static_assert", "assert",   "defined",      "requires",
      "typeid",      "operator",   "goto",         "case",
      "static_cast", "const_cast", "dynamic_cast", "reinterpret_cast"};
  return kw.count(w) != 0;
}

// Statement keywords that may directly precede a call expression without
// turning `word name(` into a declaration: `return make();`, `throw err();`.
bool stmt_keyword(const std::string& w) {
  static const std::set<std::string> kw = {"return", "co_return", "co_await",
                                           "co_yield", "else",     "do",
                                           "throw",    "case"};
  return kw.count(w) != 0;
}

bool macro_like(const std::string& w) {
  bool has_alpha = false;
  for (char c : w) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

// Member names owned by std synchronization/container vocabulary: a member
// call spelled `x.wait(...)` is std machinery, never a project function
// that happens to share the name. Explicit `Class::wait(...)` calls still
// resolve.
bool std_member(const std::string& w) {
  static const std::set<std::string> kw = {
      "wait",     "wait_for",   "wait_until", "lock",
      "unlock",   "try_lock",   "notify_one", "notify_all"};
  return kw.count(w) != 0;
}

bool graph_scope(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/") ||
         starts_with(path, "bench/");
}

struct RawSite {
  std::string callee;
  std::string qualifier;  // explicit `Qual::callee(` qualifier; "" otherwise
  bool qualified = false;
  std::size_t node = 0;
  std::size_t line = 0;
  bool member = false;
  bool deferred = false;
};

// Extracts every call-shaped identifier from one compacted node text.
// Positions inside @p lambdas are marked deferred.
void scan_node(const std::string& text, std::size_t node, std::size_t line,
               const std::vector<std::pair<std::size_t, std::size_t>>& lambdas,
               std::vector<RawSite>& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_ident_char(text[i]) || (text[i] >= '0' && text[i] <= '9')) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < text.size() && is_ident_char(text[e])) ++e;
    std::size_t q = e;
    while (q < text.size() && text[q] == ' ') ++q;
    if (q >= text.size() || text[q] != '(') {
      i = e;
      continue;
    }
    const std::string name = text.substr(i, e - i);
    if (call_keyword(name) || macro_like(name)) {
      i = e;
      continue;
    }

    RawSite site;
    site.callee = name;
    site.node = node;
    site.line = line;
    for (const auto& [lb, le] : lambdas) {
      if (i >= lb && i < le) {
        site.deferred = true;
        break;
      }
    }

    bool skip = false;
    std::size_t b = i;
    while (b > 0 && text[b - 1] == ' ') --b;
    if (b > 0) {
      const char c = text[b - 1];
      if (c == '.' || (c == '>' && b > 1 && text[b - 2] == '-')) {
        site.member = true;
      } else if (c == ':' && b > 1 && text[b - 2] == ':') {
        site.qualified = true;
        const std::size_t qe = b - 2;
        std::size_t qb = qe;
        while (qb > 0 && is_ident_char(text[qb - 1])) --qb;
        site.qualifier = text.substr(qb, qe - qb);
        // std-owned qualifiers are never project calls; neither are the
        // chrono clock statics (steady_clock::now and friends).
        if (site.qualifier == "std" || site.qualifier == "chrono" ||
            ends_with(site.qualifier, "_clock")) {
          skip = true;
        }
      } else if (is_ident_char(c)) {
        // `Type name(` is a declaration unless the preceding word is a
        // statement keyword (`return helper()` is a call).
        std::size_t wb = b;
        while (wb > 0 && is_ident_char(text[wb - 1])) --wb;
        if (!stmt_keyword(text.substr(wb, b - wb))) skip = true;
      } else if (c == '>' || c == '~') {
        // `vector<int> name(` declaration / destructor call.
        skip = true;
      }
    }
    if (!skip) out.push_back(site);
    i = e;
  }
}

// Iterative Tarjan; emits components callees-first (the natural Tarjan
// completion order).
struct TarjanState {
  const std::vector<std::vector<std::size_t>>& adj;
  std::vector<std::size_t> index, low;
  std::vector<bool> on_stack;
  std::vector<std::size_t> stack;
  std::size_t counter = 0;
  std::vector<std::vector<std::size_t>> sccs;

  explicit TarjanState(const std::vector<std::vector<std::size_t>>& a)
      : adj(a),
        index(a.size(), kCfgNone),
        low(a.size(), 0),
        on_stack(a.size(), false) {}

  void strong_connect(std::size_t root) {
    struct Frame {
      std::size_t v;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> frames;
    frames.push_back({root});
    index[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next_edge < adj[f.v].size()) {
        const std::size_t w = adj[f.v][f.next_edge++];
        if (index[w] == kCfgNone) {
          index[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w] && index[w] < low[f.v]) {
          low[f.v] = index[w];
        }
      } else {
        const std::size_t v = f.v;
        frames.pop_back();
        if (!frames.empty() && low[v] < low[frames.back().v]) {
          low[frames.back().v] = low[v];
        }
        if (low[v] == index[v]) {
          std::vector<std::size_t> scc;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
      }
    }
  }
};

}  // namespace

std::vector<LambdaInfo> lambdas_in(const std::string& text) {
  std::vector<LambdaInfo> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '[') {
      ++i;
      continue;
    }
    if (i + 1 < text.size() && text[i + 1] == '[') {  // [[attribute]]
      const std::size_t close = text.find("]]", i + 2);
      if (close == std::string::npos) break;
      i = close + 2;
      continue;
    }
    // Expression position? A subscript's '[' follows an identifier, ')'
    // or ']'; a lambda-introducer's follows an operator, a delimiter, the
    // start of the statement, or a statement keyword like `return`.
    std::size_t p = i;
    while (p > 0 && text[p - 1] == ' ') --p;
    bool expr = (p == 0);
    if (!expr) {
      const char c = text[p - 1];
      if (c == '(' || c == ',' || c == '=' || c == '{' || c == ';' ||
          c == '&' || c == '|' || c == '!' || c == '<' || c == '?' ||
          c == ':' || c == '+' || c == '-' || c == '*') {
        expr = true;
      } else if (is_ident_char(c)) {
        std::size_t wb = p;
        while (wb > 0 && is_ident_char(text[wb - 1])) --wb;
        expr = stmt_keyword(text.substr(wb, p - wb));
      }
    }
    if (!expr) {
      ++i;
      continue;
    }
    // Capture list.
    std::size_t close = i + 1;
    int depth = 1;
    while (close < text.size() && depth > 0) {
      if (text[close] == '[') ++depth;
      if (text[close] == ']') --depth;
      ++close;
    }
    if (depth != 0) break;
    std::size_t q = close;
    while (q < text.size() && text[q] == ' ') ++q;
    if (q < text.size() && text[q] == '(') {  // parameter list
      int pd = 1;
      ++q;
      while (q < text.size() && pd > 0) {
        if (text[q] == '(') ++pd;
        if (text[q] == ')') --pd;
        ++q;
      }
      if (pd != 0) break;
    }
    // Specifiers / trailing return type up to the body brace.
    bool ok = true;
    while (q < text.size() && text[q] != '{') {
      const char c = text[q];
      if (is_ident_char(c) || c == ' ' || c == '-' || c == '>' || c == ':' ||
          c == '<' || c == ',' || c == '*' || c == '&' || c == '(' ||
          c == ')') {
        ++q;
      } else {
        ok = false;
        break;
      }
    }
    if (!ok || q >= text.size()) {
      i = close;
      continue;
    }
    std::size_t b = q + 1;
    int bd = 1;
    while (b < text.size() && bd > 0) {
      if (text[b] == '{') ++bd;
      if (text[b] == '}') --bd;
      ++b;
    }
    LambdaInfo info;
    info.cap_begin = i + 1;
    info.cap_end = close - 1;
    info.body_begin = q + 1;
    if (bd != 0) {  // truncated text: treat the tail as body
      info.body_end = text.size();
      out.push_back(info);
      break;
    }
    info.body_end = b - 1;
    out.push_back(info);
    i = b;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> lambda_body_ranges(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const LambdaInfo& l : lambdas_in(text)) {
    out.emplace_back(l.body_begin, l.body_end);
  }
  return out;
}

CallGraph build_call_graph(const ProjectModel& model) {
  CallGraph cg;

  // 1. Every function definition in scope, deterministic order (files in
  //    path order, functions in definition order).
  std::vector<std::vector<RawSite>> raw_sites;
  for (const auto& [path, entry] : model.files) {
    if (!graph_scope(path)) continue;
    for (FunctionCfg& cfg : build_cfgs(entry.cleaned)) {
      CgFunction fn;
      fn.path = path;
      fn.display = cfg.qualifier.empty() ? cfg.name
                                         : cfg.qualifier + "::" + cfg.name;
      fn.cfg = std::move(cfg);
      std::vector<RawSite> sites;
      for (std::size_t n = 0; n < fn.cfg.nodes.size(); ++n) {
        const CfgNode& node = fn.cfg.nodes[n];
        if (node.kind == CfgNode::Kind::kEntry ||
            node.kind == CfgNode::Kind::kExit) {
          continue;
        }
        scan_node(node.text, n, node.line, lambda_body_ranges(node.text),
                  sites);
      }
      raw_sites.push_back(std::move(sites));
      cg.functions.push_back(std::move(fn));
    }
  }

  std::set<std::string> known_classes;
  for (std::size_t f = 0; f < cg.functions.size(); ++f) {
    cg.by_name[cg.functions[f].cfg.name].push_back(f);
    if (!cg.functions[f].cfg.qualifier.empty()) {
      known_classes.insert(cg.functions[f].cfg.qualifier);
    }
  }

  // 2. Resolve.
  for (std::size_t f = 0; f < cg.functions.size(); ++f) {
    CgFunction& fn = cg.functions[f];
    for (const RawSite& raw : raw_sites[f]) {
      CallSite site;
      site.callee = raw.callee;
      site.node = raw.node;
      site.line = raw.line;
      site.member = raw.member;
      site.deferred = raw.deferred;
      const auto it = cg.by_name.find(raw.callee);
      if (it != cg.by_name.end()) {
        for (const std::size_t t : it->second) {
          const CgFunction& cand = cg.functions[t];
          if (cand.cfg.is_destructor) continue;
          bool match = false;
          if (raw.qualified) {
            // `Qual::f(...)`: members of that class when it is a known
            // class; otherwise (namespace qualifier, or bare `::`) any
            // free function of the name.
            if (!raw.qualifier.empty() &&
                known_classes.count(raw.qualifier) != 0) {
              match = cand.cfg.qualifier == raw.qualifier;
            } else {
              match = cand.cfg.qualifier.empty();
            }
          } else if (raw.member) {
            // `x.f(...)`: any member function, unless the name belongs to
            // the std synchronization vocabulary.
            match = !cand.cfg.qualifier.empty() && !std_member(raw.callee);
          } else {
            // `f(...)`: free functions, plus members of the caller's own
            // class (the unqualified-member idiom).
            match = cand.cfg.qualifier.empty() ||
                    (!fn.cfg.qualifier.empty() &&
                     cand.cfg.qualifier == fn.cfg.qualifier);
          }
          if (match) site.targets.push_back(t);
        }
      }
      cg.resolved_edges += site.targets.size();
      fn.calls.push_back(std::move(site));
    }
  }

  // 3. SCCs over the synchronous (non-deferred) edges: summary
  //    propagation only follows those.
  std::vector<std::vector<std::size_t>> adj(cg.functions.size());
  for (std::size_t f = 0; f < cg.functions.size(); ++f) {
    for (const CallSite& site : cg.functions[f].calls) {
      if (site.deferred) continue;
      for (const std::size_t t : site.targets) adj[f].push_back(t);
    }
  }
  TarjanState tarjan(adj);
  for (std::size_t f = 0; f < cg.functions.size(); ++f) {
    if (tarjan.index[f] == kCfgNone) tarjan.strong_connect(f);
  }
  cg.sccs = std::move(tarjan.sccs);
  return cg;
}

}  // namespace xh::lint
