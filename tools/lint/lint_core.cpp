#include "lint/lint_core.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <map>

#include "lint/text_scan.hpp"

namespace xh::lint {
namespace {

struct RuleContext {
  const SourceFile* file = nullptr;
  const Cleaned* cleaned = nullptr;
  std::vector<std::string> unordered_names;
  bool is_header = false;
  bool in_bench = false;
  bool in_engine_or_core = false;
  std::vector<Finding>* out = nullptr;
};

void report(const RuleContext& ctx, std::size_t line_idx,
            const std::string& rule, const std::string& message) {
  ctx.out->push_back(
      {ctx.file->path, line_idx + 1, rule, message});
}

// ---- XH-DET-001: nondeterminism sources --------------------------------

void rule_det001(const RuleContext& ctx) {
  static const std::array<const char*, 7> kRandom = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random"};
  static const std::array<const char*, 4> kTime = {"time", "clock",
                                                   "gettimeofday",
                                                   "clock_gettime"};
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    const std::string& line = ctx.cleaned->lines[i];
    for (const char* fn : kRandom) {
      if (has_call(line, fn)) {
        report(ctx, i, "XH-DET-001",
               std::string("call to '") + fn +
                   "' — use the seeded xh::Rng so runs are reproducible");
      }
    }
    if (has_ident(line, "random_device")) {
      report(ctx, i, "XH-DET-001",
             "std::random_device draws entropy from the host — seed xh::Rng "
             "explicitly instead");
    }
    if (ctx.in_bench) continue;  // timing is the whole point of bench/
    for (const char* fn : kTime) {
      if (has_call(line, fn)) {
        report(ctx, i, "XH-DET-001",
               std::string("call to '") + fn +
                   "' — wall-clock queries are banned outside bench/");
      }
    }
    if (has_call(line, "now")) {
      report(ctx, i, "XH-DET-001",
             "std::chrono ...::now() is banned outside bench/ — results must "
             "not depend on when they are computed");
    }
  }
}

// ---- XH-DET-002: unordered-container iteration -------------------------

void rule_det002(const RuleContext& ctx) {
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    const std::string& line = ctx.cleaned->lines[i];
    for (const std::string& name : ctx.unordered_names) {
      // Range-for over the container: `for (... : name)`.
      const std::size_t for_pos = find_ident(line, "for");
      const std::size_t colon =
          for_pos == std::string::npos
              ? std::string::npos
              : find_range_colon(line, for_pos);
      if (for_pos != std::string::npos && colon != std::string::npos &&
          find_ident(line, name, colon) != std::string::npos) {
        report(ctx, i, "XH-DET-002",
               "iteration over unordered container '" + name +
                   "' — hash order is nondeterministic across libc++/libstdc++ "
                   "and load factors; sort before emitting");
        continue;
      }
      // Iterator walk: name.begin() / name.cbegin().
      for (const char* b : {".begin", ".cbegin"}) {
        const std::size_t p = find_ident(line, name);
        if (p != std::string::npos &&
            line.compare(p + name.size(), std::string(b).size(), b) == 0) {
          report(ctx, i, "XH-DET-002",
                 "iterator over unordered container '" + name +
                     "' — hash order is nondeterministic; sort before "
                     "emitting");
        }
      }
    }
  }
}

// ---- XH-ERR-001: diagnostics routing in engine/core --------------------

void rule_err001(const RuleContext& ctx) {
  if (!ctx.in_engine_or_core) return;
  static const std::array<const char*, 5> kAborts = {
      "abort", "exit", "_Exit", "quick_exit", "terminate"};
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    const std::string& line = ctx.cleaned->lines[i];
    if (has_ident(line, "throw")) {
      report(ctx, i, "XH-ERR-001",
             "bare throw in src/core//src/engine/ — route through "
             "XH_REQUIRE/XH_ASSERT or the xh::Diagnostics collector");
    }
    for (const char* fn : kAborts) {
      if (has_call(line, fn)) {
        report(ctx, i, "XH-ERR-001",
               std::string("call to '") + fn +
                   "' — engine/core must degrade through xh::Diagnostics, "
                   "never kill the process");
      }
    }
  }
}

// ---- XH-PARSE-001: raw numeric parsing ---------------------------------

void rule_parse001(const RuleContext& ctx) {
  static const std::array<const char*, 16> kParsers = {
      "atoi", "atol", "atoll", "atof", "strtol", "strtoul", "strtoll",
      "strtoull", "strtod", "strtof", "stoi", "stol", "stoll", "stoul",
      "stoull", "stod"};
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    for (const char* fn : kParsers) {
      if (has_call(ctx.cleaned->lines[i], fn)) {
        report(ctx, i, "XH-PARSE-001",
               std::string("call to '") + fn +
                   "' silently accepts junk/overflow — use "
                   "xh::parse_u64/parse_size/parse_f64");
      }
    }
  }
}

// ---- XH-HDR-001 / XH-HDR-002: header hygiene ---------------------------

void rule_headers(const RuleContext& ctx) {
  if (!ctx.is_header) return;
  bool pragma_seen = false;
  bool code_before_pragma = false;
  std::size_t first_code_line = 0;
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    const std::string& line = ctx.cleaned->lines[i];
    const std::size_t nb = line.find_first_not_of(" \t");
    if (nb == std::string::npos) continue;
    if (line.compare(nb, 12, "#pragma once") == 0) {
      pragma_seen = true;
      break;
    }
    if (!code_before_pragma) {
      code_before_pragma = true;
      first_code_line = i;
    }
  }
  if (!pragma_seen || code_before_pragma) {
    report(ctx, first_code_line, "XH-HDR-001",
           pragma_seen
               ? "#pragma once must precede all code in a header"
               : "header is missing #pragma once");
  }
  for (std::size_t i = 0; i < ctx.cleaned->lines.size(); ++i) {
    const std::string& line = ctx.cleaned->lines[i];
    const std::size_t u = find_ident(line, "using");
    if (u != std::string::npos &&
        find_ident(line, "namespace", u) != std::string::npos) {
      report(ctx, i, "XH-HDR-002",
             "using namespace in a header leaks into every includer");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"XH-DET-001",
       "nondeterminism source (rand/random_device/time/chrono-now) in "
       "library code"},
      {"XH-DET-002",
       "iteration over an unordered container (hash order leaks into "
       "output)"},
      {"XH-ERR-001",
       "bare throw/abort/exit in src/core/ or src/engine/ (xh::Diagnostics "
       "routing is mandated)"},
      {"XH-PARSE-001",
       "raw atoi/strtol/stoul-style parsing instead of util/parse strict "
       "helpers"},
      {"XH-HDR-001", "header missing #pragma once before any code"},
      {"XH-HDR-002", "using namespace at header scope"},
      {"XH-INC-001", "include cycle between project files"},
      {"XH-INC-002",
       "layering violation against the tools/lint/layers.txt spec"},
      {"XH-INC-003",
       "unused direct include, or a symbol satisfied only through another "
       "header's transitive includes (IWYU-lite)"},
      {"XH-OBS-001",
       "telemetry instrument name absent from the canonical xh-telemetry/1 "
       "schema list (obs/telemetry_json.cpp)"},
      {"XH-SUP-001",
       "stale xh-lint suppression: the allow() no longer suppresses any "
       "finding anywhere in the tree"},
      {"XH-FLOW-001",
       "a Diagnostics/Status-bearing value is discarded or overwritten on "
       "at least one path before being checked"},
      {"XH-FLOW-002",
       "a loop path that can block (sleep/wait or unbounded) never consults "
       "the in-scope CancelToken"},
      {"XH-FLOW-003",
       "relaxed-atomic RMW outside the src/storage/ note_* accounting seam, "
       "or a mutex-guarded field touched on an unguarded path"},
      {"XH-FLOW-004",
       "use-after-move of a BitVec/store handle or other moved-from local"},
      {"XH-IPA-001",
       "bare-statement call whose every resolved target returns a "
       "Diagnostics/Status-bearing type: the outcome is discarded "
       "transitively"},
      {"XH-IPA-002",
       "callable posted to the thread pool can block (directly or through "
       "a resolved callee) but never consults the in-scope CancelToken"},
      {"XH-RACE-001",
       "posted callable captures a local by reference and some path "
       "reaches the end of its scope without a drain/join barrier"},
      {"XH-RACE-002",
       "lock-order inversion between two functions' nested acquisitions, "
       "or a callable posted under a lock its own work re-acquires"},
  };
  return kRules;
}

std::string registry_version() {
  // Changes whenever a rule is added, removed, or re-described: analysis
  // caches keyed on this string invalidate on any registry change even
  // when the scanned sources are untouched.
  std::string v = "xh-lint-registry/";
  v += std::to_string(rules().size());
  std::size_t hash = 1469598103934665603ull;  // FNV-1a, as in cache_key

  for (const RuleInfo& r : rules()) {
    for (const char c : r.id + "\x1f" + r.summary + "\x1e") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016zx", hash);
  v += "/";
  v += buf;
  return v;
}

std::vector<Finding> per_file_findings(
    const SourceFile& file, const Cleaned& cleaned,
    const std::vector<std::string>& extra_unordered_names) {
  RuleContext ctx;
  ctx.file = &file;
  ctx.cleaned = &cleaned;
  ctx.is_header = ends_with(file.path, ".hpp") || ends_with(file.path, ".h");
  ctx.in_bench = starts_with(file.path, "bench/");
  ctx.in_engine_or_core = starts_with(file.path, "src/core/") ||
                          starts_with(file.path, "src/engine/");
  ctx.unordered_names = harvest_unordered_names(cleaned.lines);
  if (!extra_unordered_names.empty()) {
    ctx.unordered_names.insert(ctx.unordered_names.end(),
                               extra_unordered_names.begin(),
                               extra_unordered_names.end());
    std::sort(ctx.unordered_names.begin(), ctx.unordered_names.end());
    ctx.unordered_names.erase(
        std::unique(ctx.unordered_names.begin(), ctx.unordered_names.end()),
        ctx.unordered_names.end());
  }

  std::vector<Finding> raw;
  ctx.out = &raw;
  rule_det001(ctx);
  rule_det002(ctx);
  rule_err001(ctx);
  rule_parse001(ctx);
  rule_headers(ctx);
  return raw;
}

std::vector<Finding> apply_suppressions(const Cleaned& cleaned,
                                        std::vector<Finding> raw) {
  std::vector<Finding> out;
  for (Finding& f : raw) {
    const auto allowed = [&](const std::vector<std::string>& ids) {
      return std::find(ids.begin(), ids.end(), f.rule) != ids.end();
    };
    if (allowed(cleaned.allow_file)) continue;
    if (f.line - 1 < cleaned.allow.size() &&
        allowed(cleaned.allow[f.line - 1])) {
      continue;
    }
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> scan_file(const SourceFile& file,
                               const std::string* sibling_header) {
  const Cleaned cleaned = clean(file.content);
  std::vector<std::string> extra;
  if (sibling_header != nullptr) {
    const Cleaned sib = clean(*sibling_header);
    extra = harvest_unordered_names(sib.lines);
  }
  std::vector<Finding> raw = per_file_findings(file, cleaned, extra);
  std::vector<Finding> flow = flow_findings(file, cleaned);
  raw.insert(raw.end(), flow.begin(), flow.end());
  return apply_suppressions(cleaned, std::move(raw));
}

std::string to_string(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string findings_to_json(const std::vector<Finding>& findings) {
  // Keys are emitted in sorted order at every level so the document is
  // byte-stable for diffing (the CI baseline check relies on this).
  std::map<std::string, std::size_t> by_rule;
  for (const Finding& f : findings) ++by_rule[f.rule];
  std::string out = "{\n  \"by_rule\": {";
  std::size_t i = 0;
  for (const auto& [rule, count] : by_rule) {
    out += i++ == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(rule) + "\": " + std::to_string(count);
  }
  out += by_rule.empty() ? "},\n" : "\n  },\n";
  out += "  \"count\": " + std::to_string(findings.size()) +
         ",\n  \"findings\": [";
  for (std::size_t j = 0; j < findings.size(); ++j) {
    const Finding& f = findings[j];
    out += j == 0 ? "\n" : ",\n";
    out += "    {\"line\": " + std::to_string(f.line) + ", \"message\": \"" +
           json_escape(f.message) + "\", \"path\": \"" +
           json_escape(f.path) + "\", \"rule\": \"" + json_escape(f.rule) +
           "\"}";
  }
  out += findings.empty() ? "],\n" : "\n  ],\n";
  out += "  \"schema\": \"xh-lint-findings/1\"\n}\n";
  return out;
}

std::string findings_to_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out += "{\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"xh_lint\",\n";
  out += "          \"informationUri\": "
         "\"https://github.com/xhybrid/xhybrid\",\n";
  out += "          \"version\": \"" + json_escape(registry_version()) +
         "\",\n";
  out += "          \"rules\": [";
  const auto& reg = rules();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "            {\"id\": \"" + json_escape(reg[i].id) +
           "\", \"shortDescription\": {\"text\": \"" +
           json_escape(reg[i].summary) + "\"}}";
  }
  out += reg.empty() ? "]\n" : "\n          ]\n";
  out += "        }\n      },\n";
  out += "      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "        {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"warning\", \"message\": {\"text\": \"" +
           json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.path) +
           "\"}, \"region\": {\"startLine\": " +
           std::to_string(f.line == 0 ? 1 : f.line) + "}}}]}";
  }
  out += findings.empty() ? "]\n" : "\n      ]\n";
  out += "    }\n  ]\n}\n";
  return out;
}

}  // namespace xh::lint
