// Self-test corpus for xh_lint (DESIGN.md §9): every rule must fire on its
// bad snippets, stay silent on the good ones, and honor suppressions. The
// corpus lives under tests/lint/corpus/ mirroring the repo layout so the
// path-scoped rules (src/core/ vs bench/) see realistic virtual paths.
#include "lint/lint_core.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open corpus file " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scans one corpus file the way the CLI would: virtual path relative to
/// the corpus root, sibling header attached for .cpp files.
std::vector<xh::lint::Finding> scan(const std::string& rel) {
  const fs::path root = fs::path(XH_LINT_CORPUS_DIR);
  const fs::path full = root / rel;
  xh::lint::SourceFile file{rel, read_file(full)};

  std::string header_content;
  const std::string* header = nullptr;
  fs::path sib = full;
  sib.replace_extension(".hpp");
  if (full.extension() == ".cpp" && fs::is_regular_file(sib)) {
    header_content = read_file(sib);
    header = &header_content;
  }
  return xh::lint::scan_file(file, header);
}

struct Expectation {
  const char* rel;   // corpus-relative path
  const char* rule;  // rule that must fire, or "" for must-be-clean
};

// Every corpus file appears here; CorpusIsFullyCovered enforces that.
const Expectation kExpectations[] = {
    {"src/core/det001_rand_bad.cpp", "XH-DET-001"},
    {"src/core/det001_time_bad.cpp", "XH-DET-001"},
    {"src/core/det001_chrono_bad.cpp", "XH-DET-001"},
    {"src/core/det001_random_device_bad.cpp", "XH-DET-001"},
    {"src/core/det001_digit_separator_bad.cpp", "XH-DET-001"},
    {"src/core/det001_ident_good.cpp", ""},
    {"src/core/det001_scanclock_good.cpp", ""},
    {"bench/det001_bench_good.cpp", ""},
    {"bench/det001_bench_bad.cpp", "XH-DET-001"},
    {"src/obs/det001_span_suppressed_good.cpp", ""},
    {"src/obs/det001_span_unsuppressed_bad.cpp", "XH-DET-001"},
    {"src/core/det002_local_bad.cpp", "XH-DET-002"},
    {"src/core/det002_iterator_bad.cpp", "XH-DET-002"},
    {"src/core/det002_member_bad.cpp", "XH-DET-002"},
    {"src/core/det002_member_bad.hpp", ""},
    {"src/core/det002_lookup_good.cpp", ""},
    {"src/core/err001_throw_bad.cpp", "XH-ERR-001"},
    {"src/core/err001_abort_bad.cpp", "XH-ERR-001"},
    {"src/core/err001_require_good.cpp", ""},
    {"src/response/err001_outside_good.cpp", ""},
    {"src/core/parse001_bad.cpp", "XH-PARSE-001"},
    {"src/core/parse001_good.cpp", ""},
    {"src/core/hdr001_missing_bad.hpp", "XH-HDR-001"},
    {"src/core/hdr001_late_bad.hpp", "XH-HDR-001"},
    {"src/core/hdr002_using_bad.hpp", "XH-HDR-002"},
    {"src/core/hdr_clean_good.hpp", ""},
    {"src/service/flow001_discard_bad.cpp", "XH-FLOW-001"},
    {"src/service/flow001_overwrite_bad.cpp", "XH-FLOW-001"},
    {"src/service/flow001_checked_good.cpp", ""},
    {"src/service/flow002_spin_bad.cpp", "XH-FLOW-002"},
    {"src/service/flow002_consult_good.cpp", ""},
    {"src/service/flow003_guard_bad.cpp", "XH-FLOW-003"},
    {"src/service/flow003_guard_good.cpp", ""},
    {"src/service/flow003_post_lock_bad.cpp", "XH-FLOW-003"},
    {"src/service/flow003_post_scope_good.cpp", ""},
    {"src/core/suppress_line_good.cpp", ""},
    {"src/core/suppress_above_good.cpp", ""},
    {"src/core/suppress_file_good.cpp", ""},
    {"src/core/suppress_wrong_rule_bad.cpp", "XH-DET-001"},
    {"src/core/literal_good.cpp", ""},
};

std::string describe(const std::vector<xh::lint::Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += xh::lint::to_string(f) + "\n";
  return out;
}

TEST(LintCorpus, BadSnippetsFireTheirRule) {
  for (const Expectation& e : kExpectations) {
    if (std::string(e.rule).empty()) continue;
    const auto findings = scan(e.rel);
    const bool fired =
        std::any_of(findings.begin(), findings.end(),
                    [&](const xh::lint::Finding& f) { return f.rule == e.rule; });
    EXPECT_TRUE(fired) << e.rel << " must trigger " << e.rule << "; got:\n"
                       << describe(findings);
    // Bad snippets are minimal: they must not trip unrelated rules either.
    for (const auto& f : findings) {
      EXPECT_EQ(f.rule, e.rule) << "unexpected extra finding in " << e.rel
                                << ":\n"
                                << describe(findings);
    }
  }
}

TEST(LintCorpus, GoodSnippetsStayClean) {
  for (const Expectation& e : kExpectations) {
    if (!std::string(e.rule).empty()) continue;
    const auto findings = scan(e.rel);
    EXPECT_TRUE(findings.empty())
        << e.rel << " must be clean; got:\n" << describe(findings);
  }
}

TEST(LintCorpus, CorpusIsFullyCovered) {
  std::set<std::string> expected;
  for (const Expectation& e : kExpectations) expected.insert(e.rel);
  const fs::path root = fs::path(XH_LINT_CORPUS_DIR);
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    EXPECT_TRUE(expected.count(rel) == 1)
        << "corpus file " << rel << " has no expectation in lint_test.cpp";
  }
  // Every registered rule has a firing fixture: per-file and flow rules
  // here, whole-tree rules (XH-INC/OBS/SUP) in the tree corpus
  // (TreeCorpus.EverySeededViolationIsDetectedAndNothingElse).
  std::set<std::string> fired;
  for (const Expectation& e : kExpectations) fired.insert(e.rule);
  for (const auto& r : xh::lint::rules()) {
    if (r.id.rfind("XH-INC-", 0) == 0 || r.id == "XH-OBS-001" ||
        r.id == "XH-SUP-001") {
      continue;
    }
    EXPECT_EQ(fired.count(r.id), 1u) << r.id << " has no bad fixture";
  }
}

TEST(LintFindings, CarryLineNumbersAndFormat) {
  xh::lint::SourceFile file{"src/core/example.cpp",
                            "#include <cstdlib>\n"
                            "int a() { return 1; }\n"
                            "int b() { return rand(); }\n"};
  const auto findings = xh::lint::scan_file(file);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "XH-DET-001");
  EXPECT_EQ(xh::lint::to_string(findings[0]).substr(0, 25),
            "src/core/example.cpp:3: [");
}

TEST(LintFindings, MultipleRulesSortedByLine) {
  xh::lint::SourceFile file{"src/engine/example.cpp",
                            "#include <cstdlib>\n"
                            "void x() { throw 1; }\n"
                            "int y(const char* s) { return atoi(s); }\n"
                            "int z() { return rand(); }\n"};
  const auto findings = xh::lint::scan_file(file);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "XH-ERR-001");
  EXPECT_EQ(findings[1].rule, "XH-PARSE-001");
  EXPECT_EQ(findings[2].rule, "XH-DET-001");
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(),
      [](const auto& a, const auto& b) { return a.line < b.line; }));
}

TEST(LintRules, RegistryListsEveryRuleFamily) {
  const auto& rules = xh::lint::rules();
  ASSERT_EQ(rules.size(), 14u);
  std::set<std::string> ids;
  for (const auto& r : rules) ids.insert(r.id);
  EXPECT_EQ(ids, (std::set<std::string>{
                     "XH-DET-001", "XH-DET-002", "XH-ERR-001", "XH-PARSE-001",
                     "XH-HDR-001", "XH-HDR-002", "XH-INC-001", "XH-INC-002",
                     "XH-INC-003", "XH-OBS-001", "XH-SUP-001", "XH-FLOW-001",
                     "XH-FLOW-002", "XH-FLOW-003"}));
}

}  // namespace
