// Whole-tree rule families for xh_lint (DESIGN.md §9).
//
// Every pass here consumes the ProjectModel built by build_project_model();
// no file is re-read or re-lexed. Findings are collected RAW (per file),
// the suppression audit (XH-SUP-001) runs against the raw set — a
// suppression is "used" iff it would drop at least one raw finding — and
// only then are suppressions applied.
#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/project_model.hpp"
#include "lint/text_scan.hpp"

namespace xh::lint {
namespace {

using RawFindings = std::map<std::string, std::vector<Finding>>;

bool per_file_scope(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/") ||
         starts_with(path, "bench/");
}

bool iwyu_scope(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/");
}

bool telemetry_scope(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "bench/") ||
         starts_with(path, "tools/");
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

// ---- XH-INC-001: include cycles (Tarjan SCC) ---------------------------

void check_cycles(const ProjectModel& model, RawFindings& raw) {
  std::map<std::string, std::size_t> index;
  std::map<std::string, std::size_t> low;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  std::size_t counter = 0;
  std::vector<std::vector<std::string>> cycles;

  std::function<void(const std::string&)> connect =
      [&](const std::string& v) {
        index[v] = low[v] = counter++;
        stack.push_back(v);
        on_stack.insert(v);
        for (const IncludeEdge& e : model.files.at(v).includes) {
          if (index.count(e.target) == 0) {
            connect(e.target);
            low[v] = std::min(low[v], low[e.target]);
          } else if (on_stack.count(e.target) != 0) {
            low[v] = std::min(low[v], index[e.target]);
          }
        }
        if (low[v] == index[v]) {
          std::vector<std::string> scc;
          for (;;) {
            std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) break;
          }
          bool cyclic = scc.size() > 1;
          for (const IncludeEdge& e : model.files.at(v).includes) {
            if (e.target == v) cyclic = true;  // self-include
          }
          if (cyclic) cycles.push_back(std::move(scc));
        }
      };
  for (const auto& [path, entry] : model.files) {
    (void)entry;
    if (index.count(path) == 0) connect(path);
  }

  for (std::vector<std::string>& scc : cycles) {
    std::sort(scc.begin(), scc.end());
    const std::string& anchor = scc.front();
    const std::set<std::string> members(scc.begin(), scc.end());
    std::size_t line = 1;
    for (const IncludeEdge& e : model.files.at(anchor).includes) {
      if (members.count(e.target) != 0) {
        line = e.line;
        break;
      }
    }
    raw[anchor].push_back(
        {anchor, line, "XH-INC-001",
         "include cycle: " + join(scc, " -> ") + " -> " + anchor});
  }
}

// ---- XH-INC-002: layering ----------------------------------------------

void check_layering(const ProjectModel& model, RawFindings& raw) {
  if (model.spec.layers.empty()) return;
  for (const auto& [path, entry] : model.files) {
    if (!model.spec.known(entry.layer)) {
      raw[path].push_back(
          {path, 1, "XH-INC-002",
           "layer '" + entry.layer +
               "' is not declared in tools/lint/layers.txt"});
      continue;
    }
    for (const IncludeEdge& e : entry.includes) {
      const std::string& to = model.files.at(e.target).layer;
      if (!model.spec.allowed(entry.layer, to)) {
        raw[path].push_back(
            {path, e.line, "XH-INC-002",
             "layer '" + entry.layer + "' may not depend on layer '" + to +
                 "' (" + e.target + ") — see tools/lint/layers.txt"});
        continue;
      }
      // Path-prefix visibility on top of the layer graph: a `private`
      // header may only be included from its whitelisted layers, even when
      // the layer edge itself is legal.
      const LayerSpec::PrivateRule* rule = model.spec.private_rule(e.target);
      if (rule != nullptr && rule->layers.count(entry.layer) == 0) {
        raw[path].push_back(
            {path, e.line, "XH-INC-002",
             e.target + " is private to layers {" +
                 join({rule->layers.begin(), rule->layers.end()}, ", ") +
                 "} — include it through the public factory instead "
                 "(see tools/lint/layers.txt)"});
      }
    }
  }
}

// ---- XH-INC-003: IWYU-lite ---------------------------------------------

/// True when the file itself (forward-)declares @p name, which makes a
/// direct include legitimately unnecessary.
bool declares_locally(const FileEntry& entry, const std::string& name) {
  for (const std::string& line : entry.cleaned.lines) {
    for (const char* kw : {"struct", "class", "enum", "using"}) {
      const std::size_t p = find_ident(line, kw);
      if (p != std::string::npos &&
          find_ident(line, name, p) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

void check_includes(const ProjectModel& model, RawFindings& raw) {
  // name → every header exporting it; only unique providers are actionable.
  std::map<std::string, std::vector<std::string>> providers;
  for (const auto& [hdr, names] : model.symbols.exported_names) {
    for (const std::string& n : names) providers[n].push_back(hdr);
  }

  for (const auto& [path, entry] : model.files) {
    if (!iwyu_scope(path) || entry.umbrella) continue;

    std::set<std::string> direct;
    for (const IncludeEdge& e : entry.includes) {
      if (!direct.insert(e.target).second) {
        raw[path].push_back({path, e.line, "XH-INC-003",
                             "duplicate include of " + e.target});
      }
    }

    for (const IncludeEdge& e : entry.includes) {
      const FileEntry& target = model.files.at(e.target);
      if (!target.is_header || target.umbrella) continue;
      if (e.target == entry.primary_header) continue;
      const auto it = model.symbols.broad_names.find(e.target);
      // Headers with no harvestable names (aggregation, macros-only edge
      // cases) are never flagged: absence of evidence is not unused.
      if (it == model.symbols.broad_names.end() || it->second.empty()) {
        continue;
      }
      bool used = false;
      for (const std::string& n : it->second) {
        if (entry.idents.count(n) != 0) {
          used = true;
          break;
        }
      }
      if (!used) {
        raw[path].push_back(
            {path, e.line, "XH-INC-003",
             "unused include: nothing declared in " + e.target +
                 " is referenced here"});
      }
    }

    // Missing direct include: a symbol whose unique provider is reachable
    // only transitively. Exemptions: symbols satisfied through the .cpp's
    // own primary header, through an explicitly included umbrella header,
    // or (forward-)declared locally.
    std::set<std::string> via_umbrella;
    for (const std::string& t : direct) {
      if (model.files.at(t).umbrella) {
        const auto& cl = model.closure.at(t);
        via_umbrella.insert(cl.begin(), cl.end());
      }
    }
    const std::set<std::string>* primary_closure = nullptr;
    if (!entry.primary_header.empty()) {
      primary_closure = &model.closure.at(entry.primary_header);
    }
    const std::set<std::string>& closure = model.closure.at(path);
    // header → (example symbol, first-use line): one finding per header.
    std::map<std::string, std::pair<std::string, std::size_t>> missing;
    for (const auto& [name, line] : entry.idents) {
      const auto pit = providers.find(name);
      if (pit == providers.end() || pit->second.size() != 1) continue;
      const std::string& hdr = pit->second.front();
      if (hdr == path || direct.count(hdr) != 0 || closure.count(hdr) == 0) {
        continue;
      }
      if (primary_closure != nullptr && primary_closure->count(hdr) != 0) {
        continue;
      }
      if (via_umbrella.count(hdr) != 0) continue;
      if (declares_locally(entry, name)) continue;
      if (missing.count(hdr) == 0) missing[hdr] = {name, line};
    }
    for (const auto& [hdr, use] : missing) {
      raw[path].push_back(
          {path, use.second, "XH-INC-003",
           "'" + use.first + "' is declared in " + hdr +
               ", which is only reached transitively — include it "
               "directly"});
    }
  }
}

// ---- XH-OBS-001: telemetry names vs schema -----------------------------

void check_telemetry(const ProjectModel& model, RawFindings& raw) {
  static const std::array<const char*, 6> kHelpers = {
      "obs_count",     "obs_counter", "obs_gauge",
      "obs_histogram", "obs_record",  "ScopedSpan"};
  for (const auto& [path, entry] : model.files) {
    if (!telemetry_scope(path)) continue;
    if (path == model.telemetry_schema_file) continue;
    // Helper declarations/definitions live here; their parameter lists and
    // internal literals are not instrument uses.
    if (starts_with(path, "src/obs/")) continue;
    for (const StringLiteral& lit : entry.cleaned.literals) {
      if (lit.line == 0 || lit.line > entry.cleaned.lines.size()) continue;
      const std::string& line = entry.cleaned.lines[lit.line - 1];
      bool instrument = false;
      for (const char* helper : kHelpers) {
        const std::size_t p = find_ident(line, helper);
        if (p != std::string::npos && p < lit.col) {
          // First literal after the helper on this line is its name.
          bool first = true;
          for (const StringLiteral& other : entry.cleaned.literals) {
            if (other.line == lit.line && other.col > p &&
                other.col < lit.col) {
              first = false;
              break;
            }
          }
          if (first) instrument = true;
          break;
        }
      }
      if (!instrument) continue;
      if (model.telemetry_schema_file.empty()) {
        raw[path].push_back(
            {path, lit.line, "XH-OBS-001",
             "telemetry name '" + lit.text +
                 "' used but no xh-telemetry-schema-begin/end block was "
                 "found in the tree"});
      } else if (model.telemetry_names.count(lit.text) == 0) {
        raw[path].push_back(
            {path, lit.line, "XH-OBS-001",
             "telemetry name '" + lit.text +
                 "' is absent from the canonical schema list (" +
                 model.telemetry_schema_file + ")"});
      }
    }
  }
}

// ---- XH-SUP-001: stale suppressions ------------------------------------

void audit_suppressions(const ProjectModel& model, RawFindings& raw) {
  for (const auto& [path, entry] : model.files) {
    std::vector<Finding> stale;
    const auto rit = raw.find(path);
    for (const Directive& dir : entry.cleaned.directives) {
      if (dir.rules.empty()) continue;
      bool used = false;
      if (rit != raw.end()) {
        for (const Finding& f : rit->second) {
          if (std::find(dir.rules.begin(), dir.rules.end(), f.rule) ==
              dir.rules.end()) {
            continue;
          }
          if (dir.file_scope ||
              (f.line >= dir.first_covered && f.line <= dir.last_covered)) {
            used = true;
            break;
          }
        }
      }
      if (!used) {
        stale.push_back(
            {path, dir.line, "XH-SUP-001",
             "stale suppression: allow(" + join(dir.rules, ",") +
                 ") no longer matches any finding — delete it"});
      }
    }
    if (!stale.empty()) {
      auto& dst = raw[path];
      dst.insert(dst.end(), stale.begin(), stale.end());
    }
  }
}

}  // namespace

std::vector<Finding> analyze_tree(const ProjectModel& model) {
  RawFindings raw;

  FlowContext flow;
  for (const auto& [name, headers] : model.symbols.nodiscard) {
    (void)headers;
    flow.nodiscard_functions.push_back(name);
  }
  for (const auto& [path, entry] : model.files) {
    if (!per_file_scope(path)) continue;
    std::vector<std::string> extra;
    if (!entry.primary_header.empty()) {
      extra = harvest_unordered_names(
          model.files.at(entry.primary_header).cleaned.lines);
    }
    std::vector<Finding> f =
        per_file_findings(entry.source, entry.cleaned, extra);
    std::vector<Finding> fl = flow_findings(entry.source, entry.cleaned, flow);
    f.insert(f.end(), fl.begin(), fl.end());
    if (!f.empty()) {
      auto& dst = raw[path];
      dst.insert(dst.end(), f.begin(), f.end());
    }
  }

  check_cycles(model, raw);
  check_layering(model, raw);
  check_includes(model, raw);
  check_telemetry(model, raw);
  audit_suppressions(model, raw);

  std::vector<Finding> out;
  for (const auto& [path, entry] : model.files) {
    const auto it = raw.find(path);
    if (it == raw.end()) continue;
    std::vector<Finding> kept =
        apply_suppressions(entry.cleaned, std::move(it->second));
    out.insert(out.end(), kept.begin(), kept.end());
  }
  return out;
}

}  // namespace xh::lint
