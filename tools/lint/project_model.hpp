// Whole-tree project model for xh_lint (DESIGN.md §9).
//
// build_project_model() ingests every source file once and derives the
// structures the cross-TU rule families need:
//   * the include graph — quoted includes resolved against src/, tools/,
//     and the includer's directory — plus its transitive closure;
//   * a layer per file (src/<dir> → <dir>, tools/** → tools, …) checked
//     against the checked-in tools/lint/layers.txt spec;
//   * a lightweight symbol/declaration index: [[nodiscard]] function
//     names (read by XH-FLOW-001 and XH-IPA-001) and per-header
//     provided-name sets for the IWYU-lite checks;
//   * the canonical telemetry name list, harvested from the
//     xh-telemetry-schema-begin/end markers in obs/telemetry_json.cpp;
//   * every suppression directive with its scope, for the tree-wide
//     stale-suppression audit.
//
// analyze_tree() then runs the per-file rule families (re-expressed as
// passes over the same model, so each file is lexed exactly once) plus the
// whole-tree families XH-INC-001/002/003, XH-OBS-001 and XH-SUP-001,
// applies suppressions, and returns findings sorted by
// (path, line, rule).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/text_scan.hpp"

namespace xh::lint {

/// Architectural layering spec (tools/lint/layers.txt). Grammar, one entry
/// per line, '#' comments:
///   layer <name>                      a leaf: may include only itself
///   layer <name> -> <dep> [<dep>...]  may include itself and the deps
///   layer <name> -> *                 unconstrained (umbrella/tests)
///   private <prefix> -> <layer>...    headers whose repo-relative path
///                                     starts with <prefix> may only be
///                                     included from the named layers
struct LayerSpec {
  struct Layer {
    std::set<std::string> deps;
    bool allow_all = false;
  };
  /// Path-prefix visibility restriction layered ON TOP of the layer graph:
  /// an include of a matching header must come from one of the listed
  /// layers even when the edge is otherwise allowed. Used to keep the
  /// per-ISA kernel backends behind the dispatch table in
  /// kernels/kernels.hpp.
  struct PrivateRule {
    std::string prefix;            // repo-relative path prefix
    std::set<std::string> layers;  // layers allowed to include matches
  };
  std::map<std::string, Layer> layers;
  std::vector<PrivateRule> privates;

  bool known(const std::string& layer) const {
    return layers.count(layer) != 0;
  }
  /// True when @p from may include @p to (same layer is always allowed).
  bool allowed(const std::string& from, const std::string& to) const;
  /// The private rule restricting @p target_path, or nullptr when the path
  /// matches no `private` prefix.
  const PrivateRule* private_rule(const std::string& target_path) const;
};

/// Parses the layers.txt grammar. Returns false and sets @p error on a
/// malformed line; the spec is left partially filled in that case.
bool parse_layer_spec(const std::string& text, LayerSpec& spec,
                      std::string& error);

/// The layer a repo-relative path belongs to: "src/util/rng.hpp" → "util",
/// "src/xh.hpp" → "xh", "tools/lint/..." → "tools", "bench/..." → "bench",
/// "tests/..." → "tests".
std::string layer_of(const std::string& path);

/// One resolved project include.
struct IncludeEdge {
  std::string target;    // repo-relative path of the included file
  std::size_t line = 0;  // 1-based line of the #include
};

struct FileEntry {
  SourceFile source;
  Cleaned cleaned;
  std::string layer;
  bool is_header = false;
  bool umbrella = false;  // aggregation-only header (xh.hpp): ≥5 includes,
                          // ≤2 non-include code lines
  std::vector<IncludeEdge> includes;  // project includes, resolved
  /// Same-stem header next to a .cpp ("" when absent).
  std::string primary_header;
  /// Every identifier token in the cleaned text → first 1-based line.
  std::map<std::string, std::size_t> idents;
};

struct SymbolIndex {
  /// [[nodiscard]] function name → declaring headers.
  std::map<std::string, std::set<std::string>> nodiscard;
  /// Header → names it provides. `broad` over-approximates (types, enums,
  /// enumerators, macros, functions, initialized constants) and feeds the
  /// unused-include check; `exported` is the precise type/alias/macro set
  /// whose unique provider feeds the missing-direct-include check.
  std::map<std::string, std::set<std::string>> broad_names;
  std::map<std::string, std::set<std::string>> exported_names;
};

struct ProjectModel {
  std::map<std::string, FileEntry> files;  // keyed by repo-relative path
  LayerSpec spec;
  SymbolIndex symbols;
  /// Canonical telemetry names between the xh-telemetry-schema markers.
  std::set<std::string> telemetry_names;
  std::string telemetry_schema_file;  // "" when no marker block was found
  /// Transitive include closure per file (includes the file itself).
  std::map<std::string, std::set<std::string>> closure;
};

ProjectModel build_project_model(std::vector<SourceFile> files,
                                 LayerSpec spec);

struct AnalyzeOptions {
  bool per_file_rules = true;  // XH-DET/ERR/PARSE/HDR over src|tools|bench
  bool tree_rules = true;      // XH-INC/API/OBS/SUP over the whole model
  bool flow_rules = true;      // XH-FLOW-001..004 over per-function CFGs
  bool ipa_rules = true;       // XH-IPA/XH-RACE over the call graph
  /// When non-empty, only rules matching one of these patterns report
  /// (exact ID, or a trailing-'*' prefix glob like "XH-FLOW-*"). Families
  /// still RUN — XH-SUP-001 must audit against the full raw set — but the
  /// returned findings are filtered.
  std::vector<std::string> only;
};

/// True when @p rule matches @p pattern (exact, or trailing-'*' prefix).
bool rule_matches(const std::string& rule, const std::string& pattern);

/// Runs all enabled rule families over the model, applies suppressions,
/// audits them (XH-SUP-001), and returns findings sorted by
/// (path, line, rule).
std::vector<Finding> analyze_tree(const ProjectModel& model,
                                  const AnalyzeOptions& options = {});

/// Runs the interprocedural rule families XH-IPA-001/002 and
/// XH-RACE-001/002 over the model's call graph (tools/lint/callgraph.hpp)
/// and function summaries. Returns RAW findings (suppressions not
/// applied) so the XH-SUP-001 audit sees them.
std::vector<Finding> ipa_findings(const ProjectModel& model);

/// Walks @p inputs (files or directories, absolute or cwd-relative) and
/// loads every .cpp/.cc/.hpp/.h into SourceFiles whose paths are relative
/// to @p root (forward slashes). Paths whose repo-relative form starts
/// with an entry of @p excludes are skipped. Missing or unreadable inputs
/// append a message to @p errors instead of being silently dropped.
std::vector<SourceFile> load_tree(const std::string& root,
                                  const std::vector<std::string>& inputs,
                                  const std::vector<std::string>& excludes,
                                  std::vector<std::string>& errors);

}  // namespace xh::lint
