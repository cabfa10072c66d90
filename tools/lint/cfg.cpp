#include "lint/cfg.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

namespace xh::lint {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Keywords that look like `name(...)` heads but never introduce a
/// function definition.
bool head_keyword(const std::string& word) {
  static const std::array<const char*, 22> kWords = {
      "if",     "for",      "while",    "switch",   "catch",  "return",
      "sizeof", "alignof",  "alignas",  "decltype", "new",    "delete",
      "throw",  "case",     "do",       "else",     "not",    "and",
      "or",     "typeid",   "noexcept", "operator"};
  return std::find_if(kWords.begin(), kWords.end(), [&](const char* w) {
           return word == w;
         }) != kWords.end();
}

/// Flattened file text with newline positions preserved, so offsets map
/// back to 1-based lines.
struct Text {
  std::string data;
  std::vector<std::size_t> line_starts;  // offset of each line's first char

  std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<std::size_t>(it - line_starts.begin());
  }
};

Text flatten(const Cleaned& cleaned) {
  Text t;
  t.line_starts.push_back(0);
  for (const std::string& line : cleaned.lines) {
    t.data += line;
    t.data += '\n';
    t.line_starts.push_back(t.data.size());
  }
  // Preprocessor directives (including continuation lines) are not
  // statements; blank them so #define bodies never masquerade as code.
  std::size_t pos = 0;
  while (pos < t.data.size()) {
    std::size_t nb = pos;
    while (nb < t.data.size() && (t.data[nb] == ' ' || t.data[nb] == '\t')) {
      ++nb;
    }
    std::size_t eol = t.data.find('\n', pos);
    if (eol == std::string::npos) eol = t.data.size();
    if (nb < t.data.size() && t.data[nb] == '#') {
      // Blank this line and every backslash-continued follower.
      for (;;) {
        std::size_t last = eol;
        while (last > pos && is_space(t.data[last - 1])) --last;
        const bool continued = last > pos && t.data[last - 1] == '\\';
        for (std::size_t i = pos; i < eol; ++i) t.data[i] = ' ';
        if (!continued || eol >= t.data.size()) break;
        pos = eol + 1;
        eol = t.data.find('\n', pos);
        if (eol == std::string::npos) eol = t.data.size();
      }
    }
    pos = eol + 1;
  }
  return t;
}

std::size_t skip_ws(const std::string& s, std::size_t p) {
  while (p < s.size() && is_space(s[p])) ++p;
  return p;
}

/// Offset just past the bracket matching s[p] (one of ( [ {), or npos.
std::size_t match_bracket(const std::string& s, std::size_t p) {
  const char open = s[p];
  const char close = open == '(' ? ')' : open == '[' ? ']' : '}';
  int depth = 0;
  for (; p < s.size(); ++p) {
    if (s[p] == open) ++depth;
    if (s[p] == close && --depth == 0) return p + 1;
  }
  return std::string::npos;
}

std::string read_word(const std::string& s, std::size_t p) {
  std::size_t q = p;
  while (q < s.size() && is_ident_char(s[q])) ++q;
  return s.substr(p, q - p);
}

/// Compact statement text: newlines to spaces, runs collapsed.
std::string compact(const std::string& s, std::size_t b, std::size_t e) {
  std::string out;
  bool in_ws = false;
  for (std::size_t i = b; i < e && i < s.size(); ++i) {
    const char c = s[i];
    if (is_space(c)) {
      in_ws = true;
      continue;
    }
    if (in_ws && !out.empty()) out += ' ';
    in_ws = false;
    out += c;
  }
  return out;
}

// ---- Function head extraction ------------------------------------------

struct Head {
  std::string name;
  std::string qualifier;
  std::string params;
  bool is_destructor = false;
  std::size_t head_offset = 0;  // offset of the name identifier
  std::size_t body_begin = 0;   // offset just past the body '{'
  std::size_t body_end = 0;     // offset of the matching '}'
};

/// Skips trailing function specifiers (const, noexcept(...), override,
/// final, attributes, trailing return type) starting right after the
/// parameter list; returns the offset of the next significant char.
std::size_t skip_specifiers(const std::string& s, std::size_t p) {
  for (;;) {
    p = skip_ws(s, p);
    if (p >= s.size()) return p;
    if (p + 1 < s.size() && s[p] == '[' && s[p + 1] == '[') {
      const std::size_t close = s.find("]]", p + 2);
      if (close == std::string::npos) return s.size();
      p = close + 2;
      continue;
    }
    if (p + 1 < s.size() && s[p] == '-' && s[p + 1] == '>') {
      // Trailing return type: consume everything up to the body/terminator.
      p += 2;
      while (p < s.size() && s[p] != '{' && s[p] != ';' && s[p] != '}') {
        if (s[p] == '(') {
          const std::size_t q = match_bracket(s, p);
          if (q == std::string::npos) return s.size();
          p = q;
        } else {
          ++p;
        }
      }
      continue;
    }
    const std::string word = read_word(s, p);
    if (word == "const" || word == "override" || word == "final" ||
        word == "mutable" || word == "volatile" || word == "&" ||
        word == "try") {
      p += word.size();
      continue;
    }
    if (word == "noexcept") {
      p += word.size();
      const std::size_t q = skip_ws(s, p);
      if (q < s.size() && s[q] == '(') {
        const std::size_t r = match_bracket(s, q);
        if (r == std::string::npos) return s.size();
        p = r;
      }
      continue;
    }
    if (s[p] == '&') {  // ref-qualifier
      ++p;
      if (p < s.size() && s[p] == '&') ++p;
      continue;
    }
    return p;
  }
}

/// Parses a constructor initializer list starting at the ':' at @p p;
/// returns the offset of the body '{', or npos when this is not an
/// initializer list after all.
std::size_t skip_init_list(const std::string& s, std::size_t p) {
  ++p;  // past ':'
  for (;;) {
    p = skip_ws(s, p);
    const std::string member = read_word(s, p);
    if (member.empty()) return std::string::npos;
    p = skip_ws(s, p + member.size());
    if (p >= s.size() || (s[p] != '(' && s[p] != '{')) {
      return std::string::npos;
    }
    const std::size_t q = match_bracket(s, p);
    if (q == std::string::npos) return std::string::npos;
    p = skip_ws(s, q);
    if (p < s.size() && s[p] == ',') {
      ++p;
      continue;
    }
    if (p < s.size() && s[p] == '{') return p;
    return std::string::npos;
  }
}

std::vector<Head> find_heads(const std::string& s) {
  std::vector<Head> heads;
  std::size_t pos = 0;
  while (pos < s.size()) {
    if (!is_ident_char(s[pos]) ||
        (pos > 0 && is_ident_char(s[pos - 1]))) {
      ++pos;
      continue;
    }
    const std::string word = read_word(s, pos);
    const std::size_t word_at = pos;
    pos += word.size();
    if (head_keyword(word) ||
        std::isdigit(static_cast<unsigned char>(word[0])) != 0) {
      continue;
    }
    // Member-access calls are never definitions.
    std::size_t back = word_at;
    while (back > 0 && is_space(s[back - 1])) --back;
    if (back > 0 && (s[back - 1] == '.' ||
                     (back > 1 && s[back - 2] == '-' && s[back - 1] == '>'))) {
      continue;
    }
    const std::size_t paren = skip_ws(s, pos);
    if (paren >= s.size() || s[paren] != '(') continue;
    const std::size_t paren_end = match_bracket(s, paren);
    if (paren_end == std::string::npos) continue;
    std::size_t p = skip_specifiers(s, paren_end);
    if (p < s.size() && s[p] == ':' &&
        (p + 1 >= s.size() || s[p + 1] != ':')) {
      p = skip_init_list(s, p);
      if (p == std::string::npos) continue;
    }
    if (p >= s.size() || s[p] != '{') continue;
    const std::size_t body_end = match_bracket(s, p);
    if (body_end == std::string::npos) continue;

    Head head;
    head.name = word;
    head.head_offset = word_at;
    head.params = compact(s, paren + 1, paren_end - 1);
    head.body_begin = p + 1;
    head.body_end = body_end - 1;
    // Destructor tilde and `Class::` qualifier, scanned backwards.
    std::size_t b = word_at;
    while (b > 0 && is_space(s[b - 1])) --b;
    if (b > 0 && s[b - 1] == '~') {
      head.is_destructor = true;
      --b;
      while (b > 0 && is_space(s[b - 1])) --b;
    }
    if (b > 1 && s[b - 1] == ':' && s[b - 2] == ':') {
      b -= 2;
      if (b > 0 && s[b - 1] == '>') {  // Class<T>::name
        int depth = 0;
        while (b > 0) {
          if (s[b - 1] == '>') ++depth;
          if (s[b - 1] == '<' && --depth == 0) {
            --b;
            break;
          }
          --b;
        }
      }
      std::size_t qb = b;
      while (qb > 0 && is_ident_char(s[qb - 1])) --qb;
      head.qualifier = s.substr(qb, b - qb);
    }
    heads.push_back(std::move(head));
  }
  return heads;
}

// ---- Body lowering ------------------------------------------------------

struct Fragment {
  std::size_t entry = kCfgNone;
  std::vector<std::size_t> exits;  // nodes needing an edge to the successor
};

class Lowerer {
 public:
  Lowerer(const Text& text, FunctionCfg& cfg) : text_(text), cfg_(cfg) {}

  bool lower(std::size_t begin, std::size_t end) {
    const Fragment body = parse_seq(begin, end);
    link(Fragment{FunctionCfg::kEntry, {FunctionCfg::kEntry}}, body.entry);
    if (body.entry == kCfgNone) {
      cfg_.nodes[FunctionCfg::kEntry].succ.push_back(FunctionCfg::kExit);
    } else {
      for (const std::size_t n : body.exits) {
        cfg_.nodes[n].succ.push_back(FunctionCfg::kExit);
      }
    }
    return ok_;
  }

 private:
  const Text& text_;
  FunctionCfg& cfg_;
  bool ok_ = true;
  int scope_locks_ = 0;
  std::size_t loop_head_ = kCfgNone;
  // Innermost break target collector (loop or switch) and continue target.
  std::vector<std::size_t>* breaks_ = nullptr;
  std::size_t continue_target_ = kCfgNone;

  const std::string& s() const { return text_.data; }

  std::size_t make_node(CfgNode::Kind kind, std::size_t b, std::size_t e) {
    CfgNode node;
    node.kind = kind;
    node.line = text_.line_of(b);
    node.end_line = text_.line_of(e > b ? e - 1 : b);
    node.text = compact(s(), b, e);
    node.loop_head = loop_head_;
    node.scope_locks = scope_locks_;
    cfg_.nodes.push_back(std::move(node));
    return cfg_.nodes.size() - 1;
  }

  void edge(std::size_t from, std::size_t to) {
    auto& succ = cfg_.nodes[from].succ;
    if (std::find(succ.begin(), succ.end(), to) == succ.end()) {
      succ.push_back(to);
    }
  }

  /// Connects every exit of @p prev to @p entry (when non-empty).
  void link(const Fragment& prev, std::size_t entry) {
    if (entry == kCfgNone) return;
    for (const std::size_t n : prev.exits) edge(n, entry);
  }

  static Fragment seq(Fragment a, Fragment b, Lowerer& self) {
    if (b.entry == kCfgNone) return a;
    if (a.entry == kCfgNone) return b;
    self.link(a, b.entry);
    a.exits = std::move(b.exits);
    return a;
  }

  /// Parses statements in [b, e) into one chained fragment.
  Fragment parse_seq(std::size_t b, std::size_t e) {
    Fragment out;
    const int saved_locks = scope_locks_;
    std::size_t pos = b;
    while (ok_) {
      pos = skip_ws(s(), pos);
      if (pos >= e) break;
      Fragment stmt = parse_stmt(pos, e);
      out = seq(std::move(out), std::move(stmt), *this);
    }
    scope_locks_ = saved_locks;
    return out;
  }

  /// Parses one statement starting at @p pos (advanced past it).
  Fragment parse_stmt(std::size_t& pos, std::size_t end) {
    const std::size_t start = skip_ws(s(), pos);
    if (start >= end) {
      pos = end;
      return {};
    }
    const char c = s()[start];
    if (c == ';') {
      pos = start + 1;
      return {};
    }
    if (c == '{') {
      const std::size_t close = match_bracket(s(), start);
      if (close == std::string::npos || close - 1 > end) {
        ok_ = false;
        pos = end;
        return {};
      }
      pos = close;
      return parse_seq(start + 1, close - 1);
    }
    const std::string word = read_word(s(), start);
    if (word == "if") return parse_if(pos, start, end);
    if (word == "while") return parse_while(pos, start, end);
    if (word == "for") return parse_for(pos, start, end);
    if (word == "do") return parse_do(pos, start, end);
    if (word == "switch") return parse_switch(pos, start, end);
    if (word == "try") return parse_try(pos, start, end);
    if (word == "return" || word == "throw" || word == "co_return") {
      const std::size_t stmt_end = simple_end(start, end);
      const std::size_t n = make_node(word == "throw" ? CfgNode::Kind::kThrow
                                                      : CfgNode::Kind::kReturn,
                                      start, stmt_end);
      edge(n, FunctionCfg::kExit);
      pos = stmt_end;
      return {n, {}};
    }
    if (word == "break") {
      const std::size_t n =
          make_node(CfgNode::Kind::kBreak, start, start + word.size());
      if (breaks_ != nullptr) breaks_->push_back(n);
      pos = simple_end(start, end);
      return {n, {}};
    }
    if (word == "continue") {
      const std::size_t n =
          make_node(CfgNode::Kind::kContinue, start, start + word.size());
      if (continue_target_ != kCfgNone) edge(n, continue_target_);
      pos = simple_end(start, end);
      return {n, {}};
    }
    // Plain goto-style label (`retry:`): skip the label, keep parsing the
    // statement it prefixes.
    if (!word.empty() && word != "case" && word != "default") {
      std::size_t after = skip_ws(s(), start + word.size());
      if (after < end && s()[after] == ':' &&
          (after + 1 >= end || s()[after + 1] != ':')) {
        pos = after + 1;
        return parse_stmt(pos, end);
      }
    }
    // Simple statement.
    const std::size_t stmt_end = simple_end(start, end);
    const std::size_t n =
        make_node(CfgNode::Kind::kStatement, start, stmt_end);
    if (declares_scope_lock(cfg_.nodes[n].text)) {
      ++scope_locks_;
      cfg_.nodes[n].scope_locks = scope_locks_;
    }
    pos = stmt_end;
    return {n, {n}};
  }

  /// Offset just past the ';' ending a simple statement (brackets
  /// balanced), or the enclosing '}' when the statement is unterminated.
  std::size_t simple_end(std::size_t b, std::size_t end) {
    int depth = 0;
    for (std::size_t p = b; p < end; ++p) {
      const char c = s()[p];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0) return p;  // ran into the enclosing block's close
        --depth;
      }
      if (c == ';' && depth == 0) return p + 1;
    }
    return end;
  }

  /// Reads `keyword (…)`; returns [cond_begin, cond_end) and advances
  /// @p pos past the closing paren. Fails the lowering on malformed input.
  bool parse_paren(std::size_t& pos, std::size_t kw_at,
                   const std::string& kw, std::size_t end,
                   std::size_t* cond_b, std::size_t* cond_e) {
    std::size_t p = skip_ws(s(), kw_at + kw.size());
    if (p >= end || s()[p] != '(') {
      ok_ = false;
      pos = end;
      return false;
    }
    const std::size_t close = match_bracket(s(), p);
    if (close == std::string::npos || close > end) {
      ok_ = false;
      pos = end;
      return false;
    }
    *cond_b = p + 1;
    *cond_e = close - 1;
    pos = close;
    return true;
  }

  Fragment parse_if(std::size_t& pos, std::size_t start, std::size_t end) {
    std::size_t cond_b = 0;
    std::size_t cond_e = 0;
    // `if constexpr (...)` — the condition parens are after constexpr.
    std::size_t kw_end = start + 2;
    const std::size_t maybe = skip_ws(s(), kw_end);
    if (read_word(s(), maybe) == "constexpr") kw_end = maybe + 9;
    if (!parse_paren(pos, start, s().substr(start, kw_end - start), end,
                     &cond_b, &cond_e)) {
      return {};
    }
    const std::size_t cond =
        make_node(CfgNode::Kind::kCondition, cond_b, cond_e);
    Fragment out{cond, {}};
    Fragment then_frag = parse_stmt(pos, end);
    if (then_frag.entry != kCfgNone) {
      edge(cond, then_frag.entry);
      out.exits = then_frag.exits;
    } else {
      out.exits.push_back(cond);
    }
    const std::size_t after_then = skip_ws(s(), pos);
    if (after_then < end && read_word(s(), after_then) == "else") {
      pos = after_then + 4;
      Fragment else_frag = parse_stmt(pos, end);
      if (else_frag.entry != kCfgNone) {
        edge(cond, else_frag.entry);
        out.exits.insert(out.exits.end(), else_frag.exits.begin(),
                         else_frag.exits.end());
      } else {
        out.exits.push_back(cond);
      }
    } else {
      out.exits.push_back(cond);  // false edge falls through
    }
    return out;
  }

  static bool always_true(const std::string& cond) {
    return cond == "true" || cond == "1";
  }

  /// Shared loop-body plumbing: parses the body with loop context set to
  /// @p head, wires back-edges to @p back_target and collects breaks.
  Fragment parse_loop_body(std::size_t& pos, std::size_t end,
                           std::size_t head, std::size_t back_target,
                           std::vector<std::size_t>* breaks) {
    const std::size_t saved_loop = loop_head_;
    auto* saved_breaks = breaks_;
    const std::size_t saved_continue = continue_target_;
    loop_head_ = head;
    breaks_ = breaks;
    continue_target_ = back_target;
    Fragment body = parse_stmt(pos, end);
    loop_head_ = saved_loop;
    breaks_ = saved_breaks;
    continue_target_ = saved_continue;
    if (body.entry == kCfgNone) {
      // Empty body: the head loops straight back.
      edge(head, back_target);
      body.entry = head;
    }
    for (const std::size_t n : body.exits) edge(n, back_target);
    return body;
  }

  Fragment parse_while(std::size_t& pos, std::size_t start,
                       std::size_t end) {
    std::size_t cond_b = 0;
    std::size_t cond_e = 0;
    if (!parse_paren(pos, start, "while", end, &cond_b, &cond_e)) return {};
    const std::size_t cond =
        make_node(CfgNode::Kind::kCondition, cond_b, cond_e);
    cfg_.nodes[cond].is_loop_head = true;
    cfg_.nodes[cond].loop_unbounded = always_true(cfg_.nodes[cond].text);
    std::vector<std::size_t> breaks;
    Fragment body = parse_loop_body(pos, end, cond, cond, &breaks);
    if (body.entry != cond) edge(cond, body.entry);
    Fragment out{cond, std::move(breaks)};
    if (!cfg_.nodes[cond].loop_unbounded) out.exits.push_back(cond);
    return out;
  }

  Fragment parse_for(std::size_t& pos, std::size_t start, std::size_t end) {
    std::size_t hdr_b = 0;
    std::size_t hdr_e = 0;
    if (!parse_paren(pos, start, "for", end, &hdr_b, &hdr_e)) return {};
    // Split the header at top-level semicolons; a range-for has none.
    std::vector<std::pair<std::size_t, std::size_t>> sections;
    {
      int depth = 0;
      std::size_t sec_b = hdr_b;
      for (std::size_t p = hdr_b; p < hdr_e; ++p) {
        const char c = s()[p];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        if (c == ';' && depth <= 0) {
          sections.emplace_back(sec_b, p);
          sec_b = p + 1;
        }
      }
      sections.emplace_back(sec_b, hdr_e);
    }

    Fragment out;
    std::size_t cond;
    std::size_t back_target;
    std::size_t incr = kCfgNone;
    if (sections.size() == 3) {
      const bool has_init =
          compact(s(), sections[0].first, sections[0].second).size() > 0;
      std::size_t init = kCfgNone;
      if (has_init) {
        init = make_node(CfgNode::Kind::kStatement, sections[0].first,
                         sections[0].second);
      }
      cond = make_node(CfgNode::Kind::kCondition, sections[1].first,
                       sections[1].second);
      cfg_.nodes[cond].is_loop_head = true;
      const std::string cond_text = cfg_.nodes[cond].text;
      cfg_.nodes[cond].loop_unbounded =
          cond_text.empty() || always_true(cond_text);
      if (compact(s(), sections[2].first, sections[2].second).size() > 0) {
        incr = make_node(CfgNode::Kind::kStatement, sections[2].first,
                         sections[2].second);
        cfg_.nodes[incr].loop_head = cond;
        edge(incr, cond);
      }
      back_target = incr != kCfgNone ? incr : cond;
      if (init != kCfgNone) {
        edge(init, cond);
        out.entry = init;
      } else {
        out.entry = cond;
      }
    } else {
      // Range-for: the whole header is the loop head (the loop variable is
      // (re)defined each iteration).
      cond = make_node(CfgNode::Kind::kCondition, hdr_b, hdr_e);
      cfg_.nodes[cond].is_loop_head = true;
      back_target = cond;
      out.entry = cond;
    }
    std::vector<std::size_t> breaks;
    Fragment body = parse_loop_body(pos, end, cond, back_target, &breaks);
    if (body.entry != cond) edge(cond, body.entry);
    out.exits = std::move(breaks);
    if (!cfg_.nodes[cond].loop_unbounded) out.exits.push_back(cond);
    return out;
  }

  Fragment parse_do(std::size_t& pos, std::size_t start, std::size_t end) {
    pos = start + 2;
    // The condition node is created up front so continue/back edges have a
    // target; its text is filled in after the body is parsed.
    const std::size_t cond = make_node(CfgNode::Kind::kCondition, start,
                                       start + 2);
    cfg_.nodes[cond].is_loop_head = true;
    std::vector<std::size_t> breaks;
    Fragment body = parse_loop_body(pos, end, cond, cond, &breaks);
    const std::size_t while_at = skip_ws(s(), pos);
    std::size_t cond_b = 0;
    std::size_t cond_e = 0;
    if (read_word(s(), while_at) != "while" ||
        !parse_paren(pos, while_at, "while", end, &cond_b, &cond_e)) {
      ok_ = false;
      return {};
    }
    pos = simple_end(pos, end);  // trailing ';'
    cfg_.nodes[cond].text = compact(s(), cond_b, cond_e);
    cfg_.nodes[cond].line = text_.line_of(cond_b);
    cfg_.nodes[cond].end_line = text_.line_of(cond_e > cond_b ? cond_e - 1
                                                              : cond_b);
    cfg_.nodes[cond].loop_unbounded = always_true(cfg_.nodes[cond].text);
    edge(cond, body.entry);
    Fragment out{body.entry == cond ? cond : body.entry, std::move(breaks)};
    if (!cfg_.nodes[cond].loop_unbounded) out.exits.push_back(cond);
    return out;
  }

  Fragment parse_switch(std::size_t& pos, std::size_t start,
                        std::size_t end) {
    std::size_t cond_b = 0;
    std::size_t cond_e = 0;
    if (!parse_paren(pos, start, "switch", end, &cond_b, &cond_e)) return {};
    const std::size_t cond =
        make_node(CfgNode::Kind::kCondition, cond_b, cond_e);
    const std::size_t brace = skip_ws(s(), pos);
    if (brace >= end || s()[brace] != '{') {
      ok_ = false;
      pos = end;
      return {};
    }
    const std::size_t close = match_bracket(s(), brace);
    if (close == std::string::npos) {
      ok_ = false;
      pos = end;
      return {};
    }
    pos = close;

    auto* saved_breaks = breaks_;
    std::vector<std::size_t> breaks;
    breaks_ = &breaks;

    bool has_default = false;
    Fragment pending;  // falls through into the next label/statement
    std::size_t p = brace + 1;
    const std::size_t body_end = close - 1;
    while (ok_) {
      p = skip_ws(s(), p);
      if (p >= body_end) break;
      const std::string word = read_word(s(), p);
      if (word == "case" || word == "default") {
        if (word == "default") has_default = true;
        // Label extends to the ':' (skip over `::` scope qualifiers).
        std::size_t q = p + word.size();
        while (q < body_end) {
          if (s()[q] == ':' && (q + 1 >= body_end || s()[q + 1] != ':')) {
            break;
          }
          if (s()[q] == ':' && q + 1 < body_end && s()[q + 1] == ':') {
            q += 2;
            continue;
          }
          ++q;
        }
        const std::size_t label = make_node(CfgNode::Kind::kCase, p, q);
        edge(cond, label);
        link(pending, label);  // fallthrough from the previous group
        pending = {label, {label}};
        p = q + 1;
        continue;
      }
      Fragment stmt = parse_stmt(p, body_end);
      pending = seq(std::move(pending), std::move(stmt), *this);
    }
    breaks_ = saved_breaks;

    Fragment out{cond, std::move(breaks)};
    out.exits.insert(out.exits.end(), pending.exits.begin(),
                     pending.exits.end());
    if (!has_default) out.exits.push_back(cond);
    return out;
  }

  Fragment parse_try(std::size_t& pos, std::size_t start, std::size_t end) {
    pos = start + 3;
    const std::size_t entry =
        make_node(CfgNode::Kind::kStatement, start, start + 3);
    Fragment body = parse_stmt(pos, end);
    Fragment out{entry, std::move(body.exits)};
    if (body.entry != kCfgNone) edge(entry, body.entry);
    for (;;) {
      const std::size_t at = skip_ws(s(), pos);
      if (at >= end || read_word(s(), at) != "catch") break;
      std::size_t param_b = 0;
      std::size_t param_e = 0;
      if (!parse_paren(pos, at, "catch", end, &param_b, &param_e)) return {};
      const std::size_t handler =
          make_node(CfgNode::Kind::kStatement, param_b, param_e);
      edge(entry, handler);  // the try block may throw at any point
      Fragment hbody = parse_stmt(pos, end);
      if (hbody.entry != kCfgNone) {
        edge(handler, hbody.entry);
        out.exits.insert(out.exits.end(), hbody.exits.begin(),
                         hbody.exits.end());
      } else {
        out.exits.push_back(handler);
      }
    }
    return out;
  }
};

}  // namespace

std::vector<FunctionCfg> build_cfgs(const Cleaned& cleaned) {
  const Text text = flatten(cleaned);
  std::vector<FunctionCfg> out;
  for (const Head& head : find_heads(text.data)) {
    FunctionCfg cfg;
    cfg.name = head.name;
    cfg.qualifier = head.qualifier;
    cfg.line = text.line_of(head.head_offset);
    cfg.is_destructor = head.is_destructor;
    cfg.is_constructor =
        !head.is_destructor && head.name == head.qualifier;
    cfg.params = head.params;
    cfg.nodes.resize(2);
    cfg.nodes[FunctionCfg::kEntry].kind = CfgNode::Kind::kEntry;
    cfg.nodes[FunctionCfg::kEntry].line = cfg.line;
    cfg.nodes[FunctionCfg::kEntry].end_line = cfg.line;
    cfg.nodes[FunctionCfg::kExit].kind = CfgNode::Kind::kExit;
    cfg.nodes[FunctionCfg::kExit].line = text.line_of(head.body_end);
    cfg.nodes[FunctionCfg::kExit].end_line =
        cfg.nodes[FunctionCfg::kExit].line;
    Lowerer lowerer(text, cfg);
    if (lowerer.lower(head.body_begin, head.body_end)) {
      out.push_back(std::move(cfg));
    }
  }
  return out;
}

bool declares_scope_lock(const std::string& stmt) {
  for (const char* kind : {"lock_guard", "scoped_lock", "unique_lock"}) {
    for (std::size_t p = find_ident(stmt, kind); p != std::string::npos;
         p = find_ident(stmt, kind, p + 1)) {
      // A guard declared inside a lambda body the statement carries holds
      // only while that body runs.
      const std::string_view before(stmt.data(), p);
      if (std::count(before.begin(), before.end(), '{') !=
          std::count(before.begin(), before.end(), '}')) {
        continue;
      }
      // A declaration mentions the type then a variable + initializer; a
      // bare mention in a template parameter or comment-stripped string
      // has neither. `std::unique_lock<std::mutex> lock(mu_);`
      if (stmt.find('(', p) != std::string::npos ||
          stmt.find('{', p) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::size_t> reachable_from(const FunctionCfg& cfg,
                                        std::size_t from) {
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::vector<std::size_t> stack = {from};
  std::vector<std::size_t> out;
  while (!stack.empty()) {
    const std::size_t n = stack.back();
    stack.pop_back();
    if (n >= cfg.nodes.size() || seen[n]) continue;
    seen[n] = true;
    out.push_back(n);
    for (const std::size_t next : cfg.nodes[n].succ) stack.push_back(next);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool cfg_connected(const FunctionCfg& cfg) {
  const std::vector<std::size_t> reach =
      reachable_from(cfg, FunctionCfg::kEntry);
  if (reach.size() != cfg.nodes.size()) return false;
  return std::binary_search(reach.begin(), reach.end(), FunctionCfg::kExit);
}

std::string to_string(const FunctionCfg& cfg) {
  static const char* kKinds[] = {"entry", "exit",  "stmt",     "cond",
                                 "case",  "return", "break",   "continue",
                                 "throw"};
  std::string out = cfg.qualifier.empty()
                        ? cfg.name
                        : cfg.qualifier + "::" + cfg.name;
  out += " @" + std::to_string(cfg.line) + "\n";
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    const CfgNode& n = cfg.nodes[i];
    out += "  [" + std::to_string(i) + "] " +
           kKinds[static_cast<int>(n.kind)] + " L" +
           std::to_string(n.line) + " ->";
    for (const std::size_t t : n.succ) out += " " + std::to_string(t);
    if (n.is_loop_head) out += n.loop_unbounded ? " (loop*)" : " (loop)";
    if (n.scope_locks > 0) {
      out += " locks=" + std::to_string(n.scope_locks);
    }
    if (!n.text.empty()) {
      out += "  `" + n.text.substr(0, 60) + "`";
    }
    out += "\n";
  }
  return out;
}

}  // namespace xh::lint
