// xh_lint — project lint CLI. Loads every input into the whole-tree
// project model (DESIGN.md §9), runs the per-file, cross-TU and flow rule
// families, and exits non-zero when any finding survives suppression so CI
// can gate on it.
//
//   xh_lint [--root DIR] [--layers FILE] [--exclude PREFIX]...
//           [--list-rules] PATH...
//
// Paths are reported relative to --root (default: the current directory);
// rule applicability (src/ vs bench/ vs tests/, core/engine) keys off that
// relative path, so run it from the repository root or pass --root
// explicitly. Missing or unreadable inputs are diagnosed on stderr and the
// exit code is 2 — they are never silently skipped.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint_core.hpp"
#include "lint/project_model.hpp"

namespace {

constexpr const char* kUsage =
    "usage: xh_lint [--root DIR] [--layers FILE] [--exclude PREFIX]...\n"
    "               [--list-rules] PATH...\n";

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string layers_path;  // default: <root>/tools/lint/layers.txt
  bool layers_explicit = false;
  std::vector<std::string> excludes;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " requires " << what << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list-rules") {
      for (const auto& r : xh::lint::rules()) {
        std::cout << r.id << "  " << r.summary << "\n";
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--root") {
      const char* v = next("a directory argument");
      if (v == nullptr) return 2;
      root = v;
      continue;
    }
    if (arg == "--layers") {
      const char* v = next("a file argument");
      if (v == nullptr) return 2;
      layers_path = v;
      layers_explicit = true;
      continue;
    }
    if (arg == "--exclude") {
      const char* v = next("a repo-relative path prefix");
      if (v == nullptr) return 2;
      excludes.emplace_back(v);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
    inputs.push_back(arg);
  }
  if (inputs.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  // Layering spec: an explicitly passed file must exist; the default
  // location is optional (XH-INC-002 simply has nothing to check without
  // it).
  xh::lint::LayerSpec spec;
  if (layers_path.empty()) layers_path = root + "/tools/lint/layers.txt";
  {
    std::ifstream in(layers_path, std::ios::binary);
    if (in.good()) {
      const std::string layers_text((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
      std::string error;
      if (!xh::lint::parse_layer_spec(layers_text, spec, error)) {
        std::cerr << "error: " << layers_path << ": " << error << "\n";
        return 2;
      }
    } else if (layers_explicit) {
      std::cerr << "error: cannot open layers spec " << layers_path << "\n";
      return 2;
    }
  }

  std::vector<std::string> errors;
  std::vector<xh::lint::SourceFile> files =
      xh::lint::load_tree(root, inputs, excludes, errors);
  if (!errors.empty()) {
    for (const std::string& e : errors) std::cerr << "error: " << e << "\n";
    return 2;
  }

  const xh::lint::ProjectModel model =
      xh::lint::build_project_model(std::move(files), std::move(spec));
  const std::vector<xh::lint::Finding> findings =
      xh::lint::analyze_tree(model);

  for (const auto& f : findings) {
    std::cout << xh::lint::to_string(f) << "\n";
  }
  if (!findings.empty()) {
    std::cout << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s")
              << " (suppress with // xh-lint: allow(RULE) and a justification)"
              << "\n";
    return 1;
  }
  return 0;
}
