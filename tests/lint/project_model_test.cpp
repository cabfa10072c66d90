// Whole-tree analyzer tests (DESIGN.md §9): the tree-corpus fixture seeds
// exactly one violation per cross-TU rule family and the analyzer must
// find each of them — and nothing else. The real repository tree, scanned
// with every family enabled, must come back clean; that test is the
// in-process twin of the xh_lint_tree_clean CLI gate.
#include "lint/project_model.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry_json.hpp"

namespace {

using xh::lint::Finding;
using xh::lint::LayerSpec;
using xh::lint::ProjectModel;
using xh::lint::SourceFile;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string describe(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += xh::lint::to_string(f) + "\n";
  return out;
}

/// Loads a tree rooted at @p root with the layer spec at @p layers_path and
/// runs the full analysis.
std::vector<Finding> analyze(const std::string& root,
                             const std::vector<std::string>& inputs,
                             const std::vector<std::string>& excludes,
                             const std::string& layers_path,
                             ProjectModel* model_out = nullptr) {
  LayerSpec spec;
  std::string error;
  EXPECT_TRUE(xh::lint::parse_layer_spec(read_file(layers_path), spec, error))
      << error;
  std::vector<std::string> errors;
  std::vector<SourceFile> files =
      xh::lint::load_tree(root, inputs, excludes, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_FALSE(files.empty());
  ProjectModel model =
      xh::lint::build_project_model(std::move(files), std::move(spec));
  std::vector<Finding> findings = xh::lint::analyze_tree(model);
  if (model_out != nullptr) *model_out = std::move(model);
  return findings;
}

TEST(TreeCorpus, EverySeededViolationIsDetectedAndNothingElse) {
  const std::string root = XH_LINT_TREE_CORPUS_DIR;
  ProjectModel model;
  const std::vector<Finding> findings =
      analyze(root, {root + "/src"}, {}, root + "/layers.txt", &model);

  std::set<std::pair<std::string, std::string>> got;
  for (const Finding& f : findings) got.emplace(f.path, f.rule);

  const std::set<std::pair<std::string, std::string>> expected = {
      {"src/util/cycle_a.hpp", "XH-INC-001"},
      {"src/engine/bad_layer.cpp", "XH-INC-002"},
      {"src/core/private_reach.cpp", "XH-INC-002"},
      {"src/mystery/thing.hpp", "XH-INC-002"},
      {"src/core/dup_include.cpp", "XH-INC-003"},
      {"src/core/unused_include.cpp", "XH-INC-003"},
      {"src/core/missing_direct.cpp", "XH-INC-003"},
      {"src/core/telemetry_user.cpp", "XH-OBS-001"},
      {"src/core/stale_suppress.cpp", "XH-SUP-001"},
      {"src/service/ipa001_drop_bad.cpp", "XH-IPA-001"},
      {"src/service/ipa001_member_drop_bad.cpp", "XH-IPA-001"},
      {"src/service/ipa002_block_bad.cpp", "XH-IPA-002"},
      {"src/service/ipa002_chain_block_bad.cpp", "XH-IPA-002"},
      {"src/service/race001_ref_bad.cpp", "XH-RACE-001"},
      {"src/service/race001_default_ref_bad.cpp", "XH-RACE-001"},
      {"src/service/race002_abba_bad.cpp", "XH-RACE-002"},
      {"src/service/race002_post_lock_bad.cpp", "XH-RACE-002"},
  };
  EXPECT_EQ(got, expected) << describe(findings);

  // The private-prefix finding names the directive's whitelist, and the
  // whitelisted engine user stays clean.
  for (const Finding& f : findings) {
    if (f.path == "src/core/private_reach.cpp") {
      EXPECT_NE(f.message.find("private to layers"), std::string::npos)
          << f.message;
    }
    EXPECT_NE(f.path, "src/engine/good_backend_use.cpp") << f.message;
  }

  // Telemetry harvest picked up the fixture's marker block.
  EXPECT_EQ(model.telemetry_schema_file, "src/obs/schema.cpp");
  EXPECT_EQ(model.telemetry_names,
            std::set<std::string>{"core.known_metric"});
}

TEST(TreeCorpus, CycleAnchorsAtLexicographicallyFirstMember) {
  const std::string root = XH_LINT_TREE_CORPUS_DIR;
  const std::vector<Finding> findings =
      analyze(root, {root + "/src"}, {}, root + "/layers.txt");
  std::size_t cycle_findings = 0;
  for (const Finding& f : findings) {
    if (f.rule != "XH-INC-001") continue;
    ++cycle_findings;
    EXPECT_EQ(f.path, "src/util/cycle_a.hpp");
    EXPECT_NE(f.message.find("src/util/cycle_b.hpp"), std::string::npos);
  }
  EXPECT_EQ(cycle_findings, 1u) << describe(findings);
}

TEST(RealTree, SelfScanIsCleanWithEveryFamilyEnabled) {
  const std::string root = XH_LINT_SOURCE_DIR;
  const std::vector<Finding> findings = analyze(
      root,
      {root + "/src", root + "/tools", root + "/bench", root + "/tests"},
      {"tests/lint/corpus/", "tests/lint/tree_corpus/"},
      root + "/tools/lint/layers.txt");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(RealTree, TelemetryHarvestMatchesSchemaApi) {
  const std::string root = XH_LINT_SOURCE_DIR;
  std::vector<std::string> errors;
  std::vector<SourceFile> files = xh::lint::load_tree(
      root, {root + "/src"}, {}, errors);
  ASSERT_TRUE(errors.empty());
  const ProjectModel model =
      xh::lint::build_project_model(std::move(files), {});
  // The lint-side harvest of the marker block and the runtime registry must
  // be the same list — otherwise XH-OBS-001 checks against a stale schema.
  const std::set<std::string> from_api(xh::telemetry_schema_names().begin(),
                                       xh::telemetry_schema_names().end());
  EXPECT_EQ(model.telemetry_names, from_api);
  EXPECT_EQ(model.telemetry_schema_file, "src/obs/telemetry_json.cpp");
}

TEST(LayerSpec, ParsesGrammarAndRejectsMalformedLines) {
  LayerSpec spec;
  std::string error;
  EXPECT_TRUE(xh::lint::parse_layer_spec(
      "# comment\n"
      "layer util\n"
      "layer core -> util obs\n"
      "layer tools -> *\n",
      spec, error));
  EXPECT_TRUE(spec.known("util"));
  EXPECT_TRUE(spec.allowed("core", "util"));
  EXPECT_TRUE(spec.allowed("core", "core"));
  EXPECT_FALSE(spec.allowed("util", "core"));
  EXPECT_TRUE(spec.allowed("tools", "core"));

  LayerSpec bad;
  EXPECT_FALSE(xh::lint::parse_layer_spec("stratum util\n", bad, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(
      xh::lint::parse_layer_spec("layer core util\n", bad, error));
}

TEST(LayerSpec, PrivatePrefixDirectiveRestrictsIncluders) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(xh::lint::parse_layer_spec(
      "layer storage\n"
      "layer engine -> storage\n"
      "layer core -> storage\n"
      "private src/storage/backend_ -> storage engine\n",
      spec, error))
      << error;
  const LayerSpec::PrivateRule* rule =
      spec.private_rule("src/storage/backend_csr.hpp");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->prefix, "src/storage/backend_");
  EXPECT_NE(rule->layers.count("engine"), 0u);
  EXPECT_EQ(rule->layers.count("core"), 0u);
  // Non-matching paths — including the factory next to the backends — are
  // unrestricted.
  EXPECT_EQ(spec.private_rule("src/storage/store_factory.hpp"), nullptr);

  LayerSpec bad;
  EXPECT_FALSE(xh::lint::parse_layer_spec(
      "private src/storage/backend_\n", bad, error));
  EXPECT_NE(error.find("private <prefix> -> <layer>"), std::string::npos);
  EXPECT_FALSE(xh::lint::parse_layer_spec(
      "private src/storage/backend_ storage\n", bad, error));
}

TEST(LayerSpec, DuplicatePrivateDirectivesAreRejected) {
  // Two `private` lines for the same prefix would silently shadow each
  // other (lookup returns the first match); the parser must refuse and
  // name the prefix so the author merges the layer lists.
  LayerSpec bad;
  std::string error;
  EXPECT_FALSE(xh::lint::parse_layer_spec(
      "layer storage\n"
      "layer engine -> storage\n"
      "private src/storage/backend_ -> storage\n"
      "private src/storage/backend_ -> engine\n",
      bad, error));
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  EXPECT_NE(error.find("duplicate private directive"), std::string::npos)
      << error;
  EXPECT_NE(error.find("src/storage/backend_"), std::string::npos) << error;

  // Distinct prefixes — even nested ones — are still fine.
  LayerSpec ok;
  EXPECT_TRUE(xh::lint::parse_layer_spec(
      "layer storage\n"
      "layer engine -> storage\n"
      "private src/storage/backend_ -> storage\n"
      "private src/storage/backend_csr_ -> engine\n",
      ok, error))
      << error;
}

TEST(LayerSpec, LayerOfMapsRepoPaths) {
  EXPECT_EQ(xh::lint::layer_of("src/util/rng.hpp"), "util");
  EXPECT_EQ(xh::lint::layer_of("src/xh.hpp"), "xh");
  EXPECT_EQ(xh::lint::layer_of("tools/lint/lint_core.cpp"), "tools");
  EXPECT_EQ(xh::lint::layer_of("bench/bench_partitioner.cpp"), "bench");
  EXPECT_EQ(xh::lint::layer_of("tests/core/hybrid_test.cpp"), "tests");
}

TEST(LoadTree, MissingInputsAreDiagnosedNotSkipped) {
  std::vector<std::string> errors;
  const std::vector<SourceFile> files = xh::lint::load_tree(
      ".", {"definitely/not/a/real/path.cpp"}, {}, errors);
  EXPECT_TRUE(files.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("definitely/not/a/real/path.cpp"),
            std::string::npos);
}

TEST(LoadTree, ExcludePrefixesSkipSubtrees) {
  const std::string root = XH_LINT_TREE_CORPUS_DIR;
  std::vector<std::string> errors;
  const std::vector<SourceFile> all =
      xh::lint::load_tree(root, {root + "/src"}, {}, errors);
  const std::vector<SourceFile> pruned = xh::lint::load_tree(
      root, {root + "/src"}, {"src/core/"}, errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_LT(pruned.size(), all.size());
  for (const SourceFile& f : pruned) {
    EXPECT_FALSE(f.path.rfind("src/core/", 0) == 0) << f.path;
  }
}

}  // namespace
