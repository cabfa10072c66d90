// Project-specific determinism / hygiene lint for the xhybrid tree.
//
// xh_lint is a token-level scanner (no full C++ parse) that enforces the
// invariants the library relies on implicitly: bit-determinism of everything
// that feeds emitted output, mandatory xh::Diagnostics routing in the
// engine/core layers, strict numeric parsing, and header hygiene. Rules are
// deliberately syntactic — the point is that they run on every line of every
// file in milliseconds, complementing the sampled runtime tests.
//
// Three rule tiers share one lexing pass (text_scan.hpp):
//   * per-file rules (this header) see one translation unit at a time;
//   * whole-tree rules (project_model.hpp) see the include graph, the
//     symbol index and every suppression at once;
//   * flow-sensitive rules (flow_rules.cpp, DESIGN.md §13) see per-function
//     CFGs (cfg.hpp) and dataflow facts (dataflow.hpp) within each file.
//
// Per-file rules (see DESIGN.md §9 for the rationale table):
//   XH-DET-001   nondeterminism source (rand/random_device/time/chrono now)
//   XH-DET-002   iteration over an unordered container
//   XH-ERR-001   bare throw/abort/exit in src/core/ or src/engine/
//   XH-PARSE-001 raw numeric parsing instead of util/parse strict helpers
//   XH-HDR-001   header missing #pragma once before any code
//   XH-HDR-002   using namespace at header scope
//
// Whole-tree rules (tools/lint/tree_rules.cpp):
//   XH-INC-001   include cycle between project files
//   XH-INC-002   layering violation against tools/lint/layers.txt
//   XH-INC-003   unused direct include / missing direct include (IWYU-lite)
//   XH-OBS-001   telemetry name not in the canonical schema list
//   XH-SUP-001   stale xh-lint suppression (suppresses nothing, tree-wide)
//
// Flow-sensitive rules (tools/lint/flow_rules.cpp):
//   XH-FLOW-001  status-bearing value discarded/overwritten before checked
//   XH-FLOW-002  blocking loop path never consults its CancelToken
//   XH-FLOW-003  mutex-guarded field touched on an unguarded path, or a
//                callable posted while a lock is held
//
// Suppression: an `allow(XH-DET-002)` directive inside an `xh-lint:`
// marker comment on the offending line or the line directly above it; the
// `allow-file` variant anywhere in a file suppresses the rule file-wide.
// Multiple rule IDs may be comma-separated inside one directive. XH-SUP-001
// audits every directive tree-wide and flags the ones that no longer
// suppress anything.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/text_scan.hpp"

namespace xh::lint {

struct Finding {
  std::string path;     // repo-relative path, forward slashes
  std::size_t line = 0; // 1-based
  std::string rule;     // e.g. "XH-DET-001"
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Static description of every rule (per-file and whole-tree), for
/// --list-rules and docs.
const std::vector<RuleInfo>& rules();

/// One file to scan. `path` is the repo-relative path (forward slashes);
/// rule applicability keys off its leading directory (src/, tools/, bench/)
/// and extension (.hpp/.h vs .cpp/.cc).
struct SourceFile {
  std::string path;
  std::string content;
};

/// Runs every per-file rule over an already-cleaned file and returns the
/// raw findings, suppressions NOT yet applied. @p extra_unordered_names
/// extends XH-DET-002 to containers declared in a sibling header.
std::vector<Finding> per_file_findings(
    const SourceFile& file, const Cleaned& cleaned,
    const std::vector<std::string>& extra_unordered_names = {});

/// Tree-level facts the flow rules can use when available; default-empty so
/// the per-file path (scan_file, the corpus) still runs every rule.
struct FlowContext {
  /// [[nodiscard]] project function names (XH-FLOW-001 tracks `auto`
  /// locals initialized from them).
  std::vector<std::string> nodiscard_functions;
};

/// Runs the flow-sensitive rule families XH-FLOW-001..003 over one file's
/// per-function CFGs. Returns RAW findings (suppressions not applied) so
/// the XH-SUP-001 audit sees them.
std::vector<Finding> flow_findings(const SourceFile& file,
                                   const Cleaned& cleaned,
                                   const FlowContext& flow = {});

/// Drops findings covered by the file's allow()/allow-file() directives and
/// sorts the survivors by (line, rule) so output is stable regardless of
/// rule execution order.
std::vector<Finding> apply_suppressions(const Cleaned& cleaned,
                                        std::vector<Finding> raw);

/// Scans one file end to end (clean + per-file rules + suppressions).
/// @p sibling_header, when non-null, is the content of the same-stem .hpp
/// next to a .cpp: unordered-container members declared there extend
/// XH-DET-002 detection to out-of-line member functions. Whole-tree rules
/// need the project model and do not run here — see analyze_tree().
std::vector<Finding> scan_file(const SourceFile& file,
                               const std::string* sibling_header = nullptr);

/// Formats a finding as "path:line: [RULE] message".
std::string to_string(const Finding& f);

}  // namespace xh::lint
