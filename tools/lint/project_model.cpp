#include "lint/project_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xh::lint {
namespace {

namespace fs = std::filesystem;

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(cur), cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// "src/core" from "src/core/hybrid.hpp"; "" when there is no directory.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// Flattened cleaned text (newlines preserved) for multi-line pattern work.
std::string flatten(const Cleaned& cleaned) {
  std::string text;
  for (const auto& l : cleaned.lines) {
    text += l;
    text += '\n';
  }
  return text;
}

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(offset), '\n'));
}

/// Reads the identifier ending right before @p end (exclusive); empty when
/// the preceding token is not an identifier.
std::string ident_before(const std::string& text, std::size_t end) {
  std::size_t e = end;
  while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  std::size_t b = e;
  while (b > 0 && is_ident_char(text[b - 1])) --b;
  return text.substr(b, e - b);
}

/// Skips whitespace then a chain of [[...]] attribute blocks starting at
/// @p pos; returns the offset of the first non-attribute character.
std::size_t skip_attributes(const std::string& text, std::size_t pos) {
  for (;;) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos + 1 < text.size() && text[pos] == '[' && text[pos + 1] == '[') {
      const std::size_t close = text.find("]]", pos + 2);
      if (close == std::string::npos) return text.size();
      pos = close + 2;
    } else {
      return pos;
    }
  }
}

/// Harvests the symbol/declaration index contributions of one header.
void harvest_header(const std::string& path, const Cleaned& cleaned,
                    SymbolIndex& index) {
  const std::string text = flatten(cleaned);
  std::set<std::string>& broad = index.broad_names[path];
  std::set<std::string>& exported = index.exported_names[path];

  // Type-introducing keywords, using-aliases and macros. These feed both
  // name sets: they are the precise "this header provides X" signals.
  for (const char* kw : {"struct", "class", "enum"}) {
    std::size_t pos = 0;
    while ((pos = find_ident(text, kw, pos)) != std::string::npos) {
      // `struct [[nodiscard]] Name`, `enum class [[nodiscard]] Name`.
      std::size_t p = skip_attributes(text, pos + std::string(kw).size());
      if (std::string(kw) == "enum" && text.compare(p, 5, "class") == 0 &&
          p + 5 < text.size() && !is_ident_char(text[p + 5])) {
        p = skip_attributes(text, p + 5);
      }
      std::string name;
      while (p < text.size() && is_ident_char(text[p])) {
        name.push_back(text[p]);
        ++p;
      }
      if (!name.empty()) {
        broad.insert(name);
        exported.insert(name);
      }
      // Enumerators: every identifier inside the enum's brace block.
      if (std::string(kw) == "enum") {
        while (p < text.size() && text[p] != '{' && text[p] != ';') ++p;
        if (p < text.size() && text[p] == '{') {
          const std::size_t close = text.find('}', p);
          std::size_t q = p + 1;
          while (q < (close == std::string::npos ? text.size() : close)) {
            if (is_ident_char(text[q])) {
              std::string en;
              while (q < text.size() && is_ident_char(text[q])) {
                en.push_back(text[q]);
                ++q;
              }
              broad.insert(en);
              // Enumerators are deliberately NOT exported: they would turn
              // every `kFoo` use into a missing-direct-include demand.
            } else {
              ++q;
            }
          }
        }
      }
      pos = p;
    }
  }
  {
    std::size_t pos = 0;
    while ((pos = find_ident(text, "using", pos)) != std::string::npos) {
      std::size_t p = pos + 5;
      while (p < text.size() &&
             std::isspace(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      std::string name;
      while (p < text.size() && is_ident_char(text[p])) {
        name.push_back(text[p]);
        ++p;
      }
      while (p < text.size() &&
             std::isspace(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      if (!name.empty() && p < text.size() && text[p] == '=' &&
          name != "namespace") {
        broad.insert(name);
        exported.insert(name);
      }
      pos = p;
    }
  }
  {
    std::size_t pos = 0;
    while ((pos = text.find("#define", pos)) != std::string::npos) {
      std::size_t p = pos + 7;
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      std::string name;
      while (p < text.size() && is_ident_char(text[p])) {
        name.push_back(text[p]);
        ++p;
      }
      if (!name.empty()) {
        broad.insert(name);
        exported.insert(name);
      }
      pos = p;
    }
  }

  // Broad-only signals: anything callable (`name(`) and anything
  // initialized (`name =`, catches constants and inline variables). These
  // exist so the unused-include check errs toward "used".
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != '(' && text[i] != '=') continue;
    if (text[i] == '=' && i + 1 < text.size() &&
        (text[i + 1] == '=' || (i > 0 && (text[i - 1] == '=' ||
                                          text[i - 1] == '!' ||
                                          text[i - 1] == '<' ||
                                          text[i - 1] == '>')))) {
      continue;  // comparison, not initialization
    }
    const std::string name = ident_before(text, i);
    if (name.size() >= 3 && name != "return" && name != "sizeof" &&
        name != "while" && name != "for" && name != "if" &&
        name != "switch" && name != "catch" && name != "alignof" &&
        name != "decltype" && name != "static_assert") {
      broad.insert(name);
    }
  }

  // [[nodiscard]] function names.
  {
    std::size_t pos = 0;
    while ((pos = text.find("[[", pos)) != std::string::npos) {
      const std::size_t close = text.find("]]", pos + 2);
      if (close == std::string::npos) break;
      const std::string attr = text.substr(pos + 2, close - pos - 2);
      if (find_ident(attr, "nodiscard") == std::string::npos) {
        pos = close + 2;
        continue;
      }
      const std::size_t decl_begin = skip_attributes(text, pos);
      std::size_t decl_end = decl_begin;
      while (decl_end < text.size() && text[decl_end] != ';' &&
             text[decl_end] != '{') {
        ++decl_end;
      }
      const std::string decl = text.substr(decl_begin, decl_end - decl_begin);
      const std::size_t paren = decl.find('(');
      if (paren != std::string::npos) {
        const std::string name = ident_before(decl, paren);
        if (!name.empty()) index.nodiscard[name].insert(path);
      }
      pos = close + 2;
    }
  }
}

void harvest_telemetry_schema(const std::string& path,
                              const SourceFile& source,
                              const Cleaned& cleaned, ProjectModel& model) {
  const std::size_t begin_off =
      source.content.find("xh-telemetry-schema-begin");
  if (begin_off == std::string::npos) return;
  const std::size_t end_off =
      source.content.find("xh-telemetry-schema-end", begin_off);
  const std::size_t begin_line = line_of_offset(source.content, begin_off);
  const std::size_t end_line =
      end_off == std::string::npos
          ? source.content.size()
          : line_of_offset(source.content, end_off);
  for (const StringLiteral& lit : cleaned.literals) {
    if (lit.line > begin_line && lit.line < end_line) {
      model.telemetry_names.insert(lit.text);
    }
  }
  model.telemetry_schema_file = path;
}

}  // namespace

bool LayerSpec::allowed(const std::string& from, const std::string& to) const {
  if (from == to) return true;
  const auto it = layers.find(from);
  if (it == layers.end()) return true;  // unknown source layers are reported
                                        // separately, not per edge
  return it->second.allow_all || it->second.deps.count(to) != 0;
}

const LayerSpec::PrivateRule* LayerSpec::private_rule(
    const std::string& target_path) const {
  for (const PrivateRule& rule : privates) {
    if (starts_with(target_path, rule.prefix)) return &rule;
  }
  return nullptr;
}

bool parse_layer_spec(const std::string& text, LayerSpec& spec,
                      std::string& error) {
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = trim(raw);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;
    std::vector<std::string> tokens = split_ws(line);
    if (tokens.size() >= 1 && tokens[0] == "private") {
      if (tokens.size() < 4 || tokens[2] != "->") {
        error = "layers spec line " + std::to_string(line_no) +
                ": expected 'private <prefix> -> <layer>...', got '" + line +
                "'";
        return false;
      }
      LayerSpec::PrivateRule rule;
      rule.prefix = tokens[1];
      // Two directives for one prefix would silently shadow each other
      // (private_rule returns the first match): refuse instead of letting
      // the second one widen or narrow visibility unnoticed.
      for (const LayerSpec::PrivateRule& existing : spec.privates) {
        if (existing.prefix == rule.prefix) {
          error = "layers spec line " + std::to_string(line_no) +
                  ": duplicate private directive for prefix '" +
                  rule.prefix + "'; merge the layer lists into one line";
          return false;
        }
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        rule.layers.insert(tokens[i]);
      }
      spec.privates.push_back(std::move(rule));
      continue;
    }
    if (tokens.size() < 2 || tokens[0] != "layer") {
      error = "layers spec line " + std::to_string(line_no) +
              ": expected 'layer <name> [-> dep...]' or "
              "'private <prefix> -> <layer>...', got '" + line + "'";
      return false;
    }
    LayerSpec::Layer layer;
    if (tokens.size() > 2) {
      if (tokens[2] != "->") {
        error = "layers spec line " + std::to_string(line_no) +
                ": expected '->' after layer name";
        return false;
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        if (tokens[i] == "*") {
          layer.allow_all = true;
        } else {
          layer.deps.insert(tokens[i]);
        }
      }
    }
    spec.layers[tokens[1]] = std::move(layer);
  }
  return true;
}

std::string layer_of(const std::string& path) {
  if (starts_with(path, "src/")) {
    const std::string rest = path.substr(4);
    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos) return stem_of(rest);  // src/xh.hpp → xh
    return rest.substr(0, slash);
  }
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? path : path.substr(0, slash);
}

ProjectModel build_project_model(std::vector<SourceFile> files,
                                 LayerSpec spec) {
  ProjectModel model;
  model.spec = std::move(spec);

  for (SourceFile& f : files) {
    FileEntry entry;
    entry.cleaned = clean(f.content);
    entry.layer = layer_of(f.path);
    entry.is_header = ends_with(f.path, ".hpp") || ends_with(f.path, ".h");
    entry.source = std::move(f);
    model.files.emplace(entry.source.path, std::move(entry));
  }

  // Include graph: quoted includes resolved against src/, tools/, the
  // includer's directory, then the root itself. Unresolvable (= external)
  // includes are dropped — the model only reasons about project files.
  for (auto& [path, entry] : model.files) {
    std::size_t include_lines = 0;
    std::size_t code_lines = 0;
    for (std::size_t i = 0; i < entry.cleaned.lines.size(); ++i) {
      const std::string line = trim(entry.cleaned.lines[i]);
      if (line.empty()) continue;
      if (!starts_with(line, "#include")) {
        ++code_lines;
        continue;
      }
      ++include_lines;
      // The quoted path is a string literal, which clean() blanks out of
      // the code text — recover it from the captured literal list. A line
      // with no literal is a <...> system include.
      std::string inc;
      for (const StringLiteral& lit : entry.cleaned.literals) {
        if (lit.line == i + 1) {
          inc = lit.text;
          break;
        }
      }
      if (inc.empty()) continue;
      for (const std::string& cand :
           {"src/" + inc, "tools/" + inc, dir_of(path) + "/" + inc, inc}) {
        if (model.files.count(cand) != 0) {
          entry.includes.push_back({cand, i + 1});
          break;
        }
      }
    }
    entry.umbrella =
        entry.is_header && include_lines >= 5 && code_lines <= 2;

    if (!entry.is_header) {
      const std::string sibling = dir_of(path).empty()
                                      ? stem_of(path) + ".hpp"
                                      : dir_of(path) + "/" + stem_of(path) +
                                            ".hpp";
      if (model.files.count(sibling) != 0) entry.primary_header = sibling;
    }

    // Identifier token set with first-occurrence lines.
    for (std::size_t i = 0; i < entry.cleaned.lines.size(); ++i) {
      const std::string& line = entry.cleaned.lines[i];
      std::size_t p = 0;
      while (p < line.size()) {
        if (!is_ident_char(line[p])) {
          ++p;
          continue;
        }
        std::size_t b = p;
        while (p < line.size() && is_ident_char(line[p])) ++p;
        entry.idents.emplace(line.substr(b, p - b), i + 1);
      }
    }
  }

  // Symbol index over headers.
  for (const auto& [path, entry] : model.files) {
    if (entry.is_header) harvest_header(path, entry.cleaned, model.symbols);
  }

  // Telemetry schema list. Only src/ holds it: the lint's own messages
  // under tools/ quote the marker in string literals.
  for (const auto& [path, entry] : model.files) {
    if (starts_with(path, "src/")) {
      harvest_telemetry_schema(path, entry.source, entry.cleaned, model);
    }
  }

  // Transitive include closure (iterative DFS per file; the graph is tiny).
  for (const auto& [path, entry] : model.files) {
    std::set<std::string>& reach = model.closure[path];
    std::vector<std::string> stack = {path};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      if (!reach.insert(cur).second) continue;
      const auto it = model.files.find(cur);
      if (it == model.files.end()) continue;
      for (const IncludeEdge& e : it->second.includes) {
        if (reach.count(e.target) == 0) stack.push_back(e.target);
      }
    }
  }

  return model;
}

std::vector<SourceFile> load_tree(const std::string& root,
                                  const std::vector<std::string>& inputs,
                                  const std::vector<std::string>& excludes,
                                  std::vector<std::string>& errors) {
  const fs::path root_path(root);
  std::vector<SourceFile> out;
  std::set<std::string> seen;

  const auto rel_path = [&](const fs::path& p) {
    std::error_code ec;
    fs::path rel = fs::relative(p, root_path, ec);
    if (ec || rel.empty()) rel = p;
    return rel.generic_string();
  };
  const auto excluded = [&](const std::string& rel) {
    for (const std::string& prefix : excludes) {
      if (starts_with(rel, prefix)) return true;
    }
    return false;
  };
  const auto has_source_extension = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
  };
  const auto load_one = [&](const fs::path& p, bool explicit_input) {
    const std::string rel = rel_path(p);
    if (excluded(rel) || seen.count(rel) != 0) return;
    std::ifstream in(p, std::ios::binary);
    if (!in.good()) {
      errors.push_back("cannot open " + p.generic_string());
      return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
      errors.push_back("read error on " + p.generic_string());
      return;
    }
    if (!explicit_input && !has_source_extension(p)) return;
    seen.insert(rel);
    out.push_back({rel, ss.str()});
  };

  for (const std::string& input : inputs) {
    const fs::path p(input);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      std::vector<fs::path> entries;
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && has_source_extension(entry.path())) {
          entries.push_back(entry.path());
        }
      }
      if (ec) {
        errors.push_back("cannot walk directory " + p.generic_string());
        continue;
      }
      std::sort(entries.begin(), entries.end());
      for (const fs::path& e : entries) load_one(e, false);
    } else if (fs::is_regular_file(p, ec)) {
      load_one(p, true);
    } else {
      errors.push_back("no such file or directory: " + p.generic_string());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return out;
}

}  // namespace xh::lint
