// Hostile .xm inputs: seeded stacks of text mutations over the two
// documents that XmGolden pins (the paper example and a 0.05-scale CKT-B
// workload). Each input must end one of two ways: the reader accepts it and
// the matrix survives a writer -> reader round trip, or the reader throws
// std::invalid_argument after recording exactly one error diagnostic. Any
// other exception fails the loop; the asan-ubsan CI leg runs it under
// AddressSanitizer and UBSan, which turn memory and UB faults into failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/paper_example.hpp"
#include "inject/corruptor.hpp"
#include "response/io.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

constexpr std::uint64_t kCasesPerDocument = 3000;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string joined(const std::vector<std::string>& lines, const char* eol) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += eol;
  }
  return out;
}

/// One seeded edit of @p text. The cell lines are those between the first
/// line (the header) and the last (the trailer). @p benign stays true only
/// while every edit keeps the matrix the text reads as: cell lines swapped,
/// or line ends turned into CRLF.
std::string mutate(Rng& rng, Corruptor& corruptor, const std::string& text,
                   bool& benign) {
  std::vector<std::string> lines = lines_of(text);
  const std::size_t cell_lines = lines.size() >= 2 ? lines.size() - 2 : 0;
  switch (rng.below(7)) {
    case 0:
      benign = false;
      return corruptor.truncate_text(text, rng.uniform());
    case 1: {
      const std::size_t edits = 1 + rng.below(3);
      if (text.size() < lines.size() + edits) break;  // too few characters
      benign = false;
      return corruptor.garble_text(text, edits);
    }
    case 2:
      if (lines.size() < 2) break;
      benign = false;
      return corruptor.duplicate_line(text);
    case 3: {  // swap two cell lines
      if (cell_lines < 2) break;
      const std::size_t a = 1 + rng.below(cell_lines);
      const std::size_t b = 1 + rng.below(cell_lines);
      std::swap(lines[a], lines[b]);
      return joined(lines, "\n");
    }
    case 4:  // drop a cell line
      if (cell_lines < 1) break;
      benign = false;
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(1 + rng.below(cell_lines)));
      return joined(lines, "\n");
    case 5: {  // copy a cell line to another position among the cell lines
      if (cell_lines < 1) break;
      benign = false;
      const std::string copy = lines[1 + rng.below(cell_lines)];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       1 + rng.below(cell_lines + 1)),
                   copy);
      return joined(lines, "\n");
    }
    default:
      return joined(lines, "\r\n");
  }
  return text;
}

struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;
};

void expect_accepted_or_one_diagnostic(const std::string& text,
                                       const std::string* original,
                                       std::uint64_t seed, Tally& tally) {
  Diagnostics diags;
  try {
    const XMatrix xm = x_matrix_from_string(text, &diags);
    ++tally.accepted;
    EXPECT_TRUE(diags.empty()) << "seed " << seed;
    const std::string canonical = x_matrix_to_string(xm);
    EXPECT_EQ(x_matrix_to_string(x_matrix_from_string(canonical)), canonical)
        << "seed " << seed;
    if (original != nullptr) {
      EXPECT_EQ(canonical, *original) << "seed " << seed;
    }
  } catch (const std::invalid_argument&) {
    ++tally.refused;
    EXPECT_EQ(diags.count(DiagSeverity::kError), 1u) << "seed " << seed;
    EXPECT_EQ(diags.total(), 1u) << "seed " << seed;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "seed " << seed << " escaped as " << e.what();
  }
}

Tally run_loop(const std::string& original, std::uint64_t first_seed) {
  Tally tally;
  for (std::uint64_t seed = first_seed; seed < first_seed + kCasesPerDocument;
       ++seed) {
    Rng rng(seed);
    Corruptor corruptor(seed);
    bool benign = true;
    std::string text = original;
    for (std::uint64_t depth = 1 + rng.below(3); depth > 0; --depth) {
      text = mutate(rng, corruptor, text, benign);
    }
    expect_accepted_or_one_diagnostic(text, benign ? &original : nullptr,
                                      seed, tally);
  }
  return tally;
}

TEST(XmHostile, PaperExampleStacks) {
  const Tally t =
      run_loop(x_matrix_to_string(paper_example_x_matrix()), 1);
  EXPECT_GT(t.accepted, kCasesPerDocument / 20);
  EXPECT_GT(t.refused, kCasesPerDocument / 2);
}

TEST(XmHostile, CktBWorkloadStacks) {
  const Tally t = run_loop(x_matrix_to_string(generate_workload(
                               scaled_profile(ckt_b_profile(), 0.05))),
                           1 + kCasesPerDocument);
  EXPECT_GT(t.accepted, kCasesPerDocument / 20);
  EXPECT_GT(t.refused, kCasesPerDocument / 2);
}

}  // namespace
}  // namespace xh
