// Golden pins for the .xm reader and writer (src/response/io.cpp).
//
// An accepted input is pinned by an FNV-1a hash over the matrix it reads
// as (geometry, pattern count, total_x, then every X cell and its row
// words) and by the response_io.* counters of a traced read. A refused
// input is pinned by the kind and message of the one error diagnostic it
// records. The two bounds errors keep only their message suffix, so the pin
// holds whichever layer raises them (XH_REQUIRE's text names a source file
// and line). The corruptor
// sweeps fold the outcomes of 64 seeded mutations of each document into
// one hash per (document, mutator), next to a tally of the outcome kinds.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/paper_example.hpp"
#include "inject/corruptor.hpp"
#include "obs/trace.hpp"
#include "response/io.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bytes_hash(std::string_view bytes) {
  std::uint64_t h = kFnvBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::uint64_t matrix_hash(const XMatrix& xm) {
  std::uint64_t h = kFnvBasis;
  for (const std::size_t v :
       {xm.geometry().num_chains, xm.geometry().chain_length,
        xm.num_patterns(), xm.total_x()}) {
    h = fnv(h, v);
  }
  const std::span<const std::uint64_t> cells = xm.x_cells();
  h = fnv(h, cells.size());
  for (std::size_t r = 0; r < cells.size(); ++r) {
    h = fnv(h, cells[r]);
    const std::uint64_t* row = xm.row_words(r);
    for (std::size_t w = 0; w < xm.words_per_row(); ++w) h = fnv(h, row[w]);
  }
  return h;
}

/// Drops the source location XH_REQUIRE puts in front of a message.
std::string stable_message(const std::string& message) {
  for (const std::string_view suffix :
       {"cell index out of range", "pattern index out of range"}) {
    if (message.ends_with(suffix)) return std::string(suffix);
  }
  const std::size_t dash = message.rfind(" — ");
  if (message.starts_with("requirement failed") &&
      dash != std::string::npos) {
    return message.substr(dash + std::string_view(" — ").size());
  }
  return message;
}

std::uint64_t counter(const Trace& trace, std::string_view name) {
  const auto it = trace.counters().find(name);
  return it == trace.counters().end() ? 0 : it->second.value;
}

struct Read {
  /// "ok <matrix hash>", "<diag kind> | <message>", or
  /// "no diagnostic | <exception text>" for a refusal that recorded none.
  std::string outcome;
  /// "lines=L cells=C x=X" of a traced read; empty for refused inputs.
  std::string counters;
};

Read read(const std::string& text) {
  Diagnostics diags;
  Trace trace;
  try {
    const XMatrix xm = x_matrix_from_string(text, &diags, &trace);
    EXPECT_TRUE(diags.empty());
    return {"ok " + hex(matrix_hash(xm)),
            "lines=" +
                std::to_string(counter(trace, "response_io.lines_parsed")) +
                " cells=" +
                std::to_string(counter(trace, "response_io.cell_records")) +
                " x=" +
                std::to_string(counter(trace, "response_io.x_entries"))};
  } catch (const std::invalid_argument& e) {
    if (diags.count(DiagSeverity::kError) == 0) {
      return {"no diagnostic | " + stable_message(e.what()), ""};
    }
    EXPECT_EQ(diags.count(DiagSeverity::kError), 1u);
    const Diagnostic& d = diags.records().back();
    EXPECT_EQ(std::string(e.what()), "response io: " + d.message);
    return {std::string(diag_kind_name(d.kind)) + " | " +
                stable_message(d.message),
            ""};
  }
}

struct Case {
  const char* name;
  std::string input;
  const char* outcome;
  const char* counters = "";
};

void expect_cases(const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    const Read r = read(c.input);
    EXPECT_EQ(r.outcome, c.outcome) << c.name;
#ifndef XH_OBS_NOOP
    EXPECT_EQ(r.counters, c.counters) << c.name;
#endif
  }
}

XMatrix ckt_b_small() {
  return generate_workload(scaled_profile(ckt_b_profile(), 0.05));
}

// ---------------------------------------------------------------------------
// Accepted inputs.

TEST(XmGolden, WriterBytes) {
  const std::string paper = x_matrix_to_string(paper_example_x_matrix());
  EXPECT_EQ(paper,
            "xmatrix v1 5 3 8\n"
            "0 0 3 4 5\n"
            "3 0 3 4 5\n"
            "5 0 3\n"
            "6 0 3 4 5\n"
            "11 0 1 2 3 4 6 7\n"
            "13 0 1 3 4 6 7\n"
            "14 5\n"
            "end 28\n");
  const std::string ckt_b = x_matrix_to_string(ckt_b_small());
  EXPECT_EQ(ckt_b.size(), 1030u);
  EXPECT_EQ(hex(bytes_hash(ckt_b)), "a2da27b580bae749");
  EXPECT_EQ(x_matrix_to_string(XMatrix({2, 3}, 5)),
            "xmatrix v1 2 3 5\nend 0\n");
}

TEST(XmGolden, DocumentsReadBack) {
  const XMatrix paper = paper_example_x_matrix();
  const XMatrix ckt_b = ckt_b_small();
  const XMatrix empty({2, 3}, 5);
  EXPECT_EQ(hex(matrix_hash(paper)), "a8331704fe3073cc");
  EXPECT_EQ(hex(matrix_hash(ckt_b)), "62962ba9a40266b8");
  EXPECT_EQ(hex(matrix_hash(empty)), "fa0d9b3ab57b10e1");
  expect_cases({
      {"paper", x_matrix_to_string(paper), "ok a8331704fe3073cc",
       "lines=8 cells=7 x=28"},
      {"ckt-b", x_matrix_to_string(ckt_b), "ok 62962ba9a40266b8",
       "lines=35 cells=34 x=297"},
      {"empty", x_matrix_to_string(empty), "ok fa0d9b3ab57b10e1",
       "lines=1 cells=0 x=0"},
  });
}

TEST(XmGolden, AcceptedEdgeInputs) {
  // Every input but the last reads as cells 0 and 3 of a 2x2 geometry with
  // 4 patterns: cell 0 under patterns 1 and 3, cell 3 under pattern 0.
  const char* kSame = "ok 9dfabc314c123068";
  const char* kCounts = "lines=3 cells=2 x=3";
  expect_cases({
      {"plain", "xmatrix v1 2 2 4\n0 1 3\n3 0\nend 3\n", kSame, kCounts},
      {"crlf", "xmatrix v1 2 2 4\r\n0 1 3\r\n3 0\r\nend 3\r\n", kSame,
       kCounts},
      {"tabs", "xmatrix\tv1\t2\t2\t4\n0\t1\t3\n3\t0\nend 3\n", kSame,
       kCounts},
      {"runs of blanks",
       "xmatrix  v1   2 2    4\n0   1 \t 3\n3  0\nend   3\n", kSame,
       kCounts},
      {"leading and trailing blanks",
       "  xmatrix v1 2 2 4  \n  0 1 3  \n\t3 0\t\nend 3  \n", kSame,
       kCounts},
      {"leading zeros", "xmatrix v1 02 002 04\n000 01 0003\n03 0\nend 03\n",
       kSame, kCounts},
      {"pattern repeated on one line",
       "xmatrix v1 2 2 4\n0 3 1 3 1\n3 0 0\nend 3\n", kSame,
       "lines=3 cells=2 x=6"},
      {"blank lines", "\nxmatrix v1 2 2 4\n\n0 1 3\n\n\n3 0\nend 3\n\n\n",
       kSame, kCounts},
      {"no final newline", "xmatrix v1 2 2 4\n0 1 3\n3 0\nend 3", kSame,
       kCounts},
      {"header across lines", "xmatrix\nv1\n2 2\n4\n0 1 3\n3 0\nend 3\n",
       kSame, kCounts},
      {"cells out of order", "xmatrix v1 2 2 4\n3 0\n0 3 1\nend 3\n", kSame,
       kCounts},
      {"vertical tab and form feed",
       "xmatrix v1 2 2 4\n0\v1\f3\n3 0\nend 3\n", kSame, kCounts},
      {"empty matrix", "xmatrix v1 2 2 4\nend 0\n", "ok d8bea4e59b076701",
       "lines=1 cells=0 x=0"},
  });
}

// ---------------------------------------------------------------------------
// Refused inputs.

TEST(XmGolden, RefusedInputs) {
  // Includes every negative .xm case of io_test.cpp.
  expect_cases({
      {"bad magic", "nonsense v1 2 2 2\n",
       "garbled-input | expected 'xmatrix'"},
      {"bad version", "xmatrix v9 2 2 2\n",
       "garbled-input | unsupported version v9"},
      {"no chains", "xmatrix v1 0 3 8\n", "garbled-input | degenerate geometry"},
      {"no patterns", "xmatrix v1 2 3 0\n",
       "garbled-input | degenerate geometry"},
      {"cell out of range", "xmatrix v1 2 2 4\n9 0\n",
       "garbled-input | cell index out of range"},
      {"pattern out of range", "xmatrix v1 2 2 4\n0 7\n",
       "garbled-input | pattern index out of range"},
      {"cell without patterns", "xmatrix v1 2 2 4\n0\n",
       "garbled-input | cell with no patterns: 0"},
      {"junk after patterns", "xmatrix v1 2 2 4\n0 1 junk\n",
       "garbled-input | trailing garbage: 0 1 junk"},
      {"duplicate cell", "xmatrix v1 2 2 4\n0 1\n0 2\nend 2\n",
       "duplicate-record | cell 0 recorded twice"},
      {"missing trailer", "xmatrix v1 2 2 4\n0 1\n",
       "truncated-input | missing 'end' trailer — input truncated"},
      {"trailer count mismatch", "xmatrix v1 2 2 4\n0 1\nend 5\n",
       "truncated-input | trailer declares 5 X's but 1 were read — cell "
       "records lost or duplicated in transit"},
      {"content after trailer", "xmatrix v1 2 2 4\n0 1\nend 1\n1 2\n",
       "trailing-garbage | content after 'end' trailer: 1 2"},
      {"trailer without count", "xmatrix v1 2 2 4\n0 1\nend\n",
       "garbled-input | malformed trailer: end"},
      {"junk after trailer count", "xmatrix v1 2 2 4\n0 1\nend 1 junk\n",
       "garbled-input | malformed trailer: end 1 junk"},
      {"empty input", "", "truncated-input | truncated header"},
      {"truncated header", "xmatrix v1 2 2",
       "truncated-input | truncated header"},
      {"header only", "xmatrix v1 2 2 4\n",
       "truncated-input | missing 'end' trailer — input truncated"},
      {"blank-only line", "xmatrix v1 2 2 4\n   \n0 1\nend 1\n",
       "garbled-input | malformed cell line:    "},
      {"CR-only line", "xmatrix v1 2 2 4\r\n\r\n0 1\r\nend 1\r\n",
       "garbled-input | malformed cell line: \r"},
      {"trailer with CR only", "xmatrix v1 2 2 4\n0 1\nend\r\n",
       "garbled-input | malformed cell line: end\r"},
      {"trailer after a tab", "xmatrix v1 2 2 4\n0 1\nend\t1\n",
       "garbled-input | malformed cell line: end\t1"},
      {"trailer after a blank", "xmatrix v1 2 2 4\n0 1\n end 1\n",
       "garbled-input | malformed cell line:  end 1"},
      {"cell overflows", "xmatrix v1 2 2 4\n99999999999999999999999 1\n",
       "garbled-input | malformed cell line: 99999999999999999999999 1"},
      {"first pattern overflows",
       "xmatrix v1 2 2 4\n0 99999999999999999999999\n",
       "garbled-input | cell with no patterns: 0 99999999999999999999999"},
      {"middle pattern overflows",
       "xmatrix v1 2 2 4\n0 1 99999999999999999999999 2\n",
       "garbled-input | trailing garbage: 0 1 99999999999999999999999 2"},
      {"trailer overflows",
       "xmatrix v1 2 2 4\n0 1\nend 99999999999999999999999\n",
       "garbled-input | malformed trailer: end 99999999999999999999999"},
      {"hex cell", "xmatrix v1 2 2 4\n0x1 1\n",
       "garbled-input | cell with no patterns: 0x1 1"},
      {"junk glued to a pattern", "xmatrix v1 2 2 4\n0 1x 2\n",
       "garbled-input | trailing garbage: 0 1x 2"},
  });
}

TEST(XmGolden, ErrorOrderOnLinesWithSeveralFaults) {
  expect_cases({
      {"magic before version and geometry", "nonsense v9 0 0 0\n",
       "garbled-input | expected 'xmatrix'"},
      {"version before geometry", "xmatrix v9 0 3 8\n",
       "garbled-input | unsupported version v9"},
      {"cell bound before pattern bound and junk",
       "xmatrix v1 2 2 4\n9 7 junk\n",
       "garbled-input | cell index out of range"},
      {"pattern bound before junk", "xmatrix v1 2 2 4\n0 7 junk\n",
       "garbled-input | pattern index out of range"},
      {"missing patterns before cell bound", "xmatrix v1 2 2 4\n9 junk\n",
       "garbled-input | cell with no patterns: 9 junk"},
      {"duplicate before missing patterns",
       "xmatrix v1 2 2 4\n0 1\n0 junk\n",
       "duplicate-record | cell 0 recorded twice"},
      {"duplicate before pattern bound", "xmatrix v1 2 2 4\n0 1\n0 9\n",
       "duplicate-record | cell 0 recorded twice"},
      {"earlier pattern bound before later cell line",
       "xmatrix v1 2 2 4\n0 1 9\n9 0\n",
       "garbled-input | pattern index out of range"},
      {"content after trailer before a second trailer",
       "xmatrix v1 2 2 4\n0 1\nend 1\nend 1\n",
       "trailing-garbage | content after 'end' trailer: end 1"},
      {"content after trailer before a bad line",
       "xmatrix v1 2 2 4\n0 1\nend 1\n9 junk\n",
       "trailing-garbage | content after 'end' trailer: 9 junk"},
      {"malformed trailer before count mismatch",
       "xmatrix v1 2 2 4\n0 1\nend 5 junk\n",
       "garbled-input | malformed trailer: end 5 junk"},
      {"bad line before missing trailer", "xmatrix v1 2 2 4\n0 1\n?\n",
       "garbled-input | malformed cell line: ?"},
  });
}

// The cell, pattern and trailer fields are unsigned decimals that fit in 64
// bits: a sign or an overflow is junk where a number should be.
TEST(XmGolden, NumericFields) {
  expect_cases({
      {"overflowing last pattern",
       "xmatrix v1 2 2 4\n0 1 99999999999999999999999\nend 1\n",
       "garbled-input | trailing garbage: 0 1 99999999999999999999999"},
      {"plus signs", "xmatrix v1 2 2 4\n+0 +1\nend 1\n",
       "garbled-input | malformed cell line: +0 +1"},
      {"minus zero", "xmatrix v1 2 2 4\n-0 1\nend 1\n",
       "garbled-input | malformed cell line: -0 1"},
      {"signed trailer", "xmatrix v1 2 2 4\n0 1\nend +1\n",
       "garbled-input | malformed trailer: end +1"},
      {"negative cell", "xmatrix v1 2 2 4\n-1 1\nend 1\n",
       "garbled-input | malformed cell line: -1 1"},
      {"negative pattern", "xmatrix v1 2 2 4\n0 -1\nend 1\n",
       "garbled-input | cell with no patterns: 0 -1"},
      {"sign glued to a pattern", "xmatrix v1 2 2 4\n0 1+2\nend 2\n",
       "garbled-input | trailing garbage: 0 1+2"},
      {"lone trailing sign", "xmatrix v1 2 2 4\n0 1 -\nend 1\n",
       "garbled-input | trailing garbage: 0 1 -"},
      {"minus zero trailer", "xmatrix v1 2 2 4\nend -0\n",
       "garbled-input | malformed trailer: end -0"},
  });
}

// The header line, which the response reader shares. Only a stream that
// ends before the fifth field is truncated.
TEST(XmGolden, HeaderLine) {
  expect_cases({
      {"junk glued to the pattern count",
       "xmatrix v1 2 2 15?0\n0 14\nend 1\n",
       "garbled-input | malformed header field '15?0'"},
      {"junk after the header", "xmatrix v1 2 2 4 junk\n0 1\nend 1\n",
       "garbled-input | content after the header fields:  junk"},
      {"junk pattern count", "xmatrix v1 5 3 ?\n",
       "garbled-input | malformed header field '?'"},
      {"junk chain length", "xmatrix v1 5 ? 8\n",
       "garbled-input | malformed header field '?'"},
      {"overflowing pattern count",
       "xmatrix v1 2 2 99999999999999999999999\n",
       "garbled-input | malformed header field '99999999999999999999999'"},
      {"cell count overflows to zero",
       "xmatrix v1 4294967296 4294967296 4\n0 1\nend 1\n",
       "garbled-input | cell count overflows: 4294967296 chains x 4294967296 "
       "cells"},
      {"cell count overflows",
       "xmatrix v1 18446744073709551615 2 4\n0 1\nend 1\n",
       "garbled-input | cell count overflows: 18446744073709551615 chains x 2 "
       "cells"},
      {"negative chain count", "xmatrix v1 -1 1 4\n0 1\nend 1\n",
       "garbled-input | malformed header field '-1'"},
      {"pattern count above 32 bits",
       "xmatrix v1 2 4 100000000000000\nend 0\n",
       "garbled-input | pattern count 100000000000000 above the limit "
       "4294967295"},
      {"pattern count above 32 bits, one cell",
       "xmatrix v1 2 4 100000000000000\n0 1\nend 1\n",
       "garbled-input | pattern count 100000000000000 above the limit "
       "4294967295"},
  });
}

// ---------------------------------------------------------------------------
// Corruptor sweeps: seeds 1-64 of each text mutator over both documents.

struct Sweep {
  std::string tally;  // "<outcome kind>=<count> ..." in kind order
  std::string hash;   // FNV-1a over every (seed, outcome) in seed order
};

template <typename Mutate>
Sweep sweep(const std::string& text, Mutate mutate) {
  std::map<std::string, int> kinds;
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Read r = read(mutate(seed, text));
    kinds[r.outcome.substr(0, r.outcome.find(' '))] += 1;
    h = fnv(h, seed);
    h = fnv(h, bytes_hash(r.outcome));
  }
  std::string tally;
  for (const auto& [kind, n] : kinds) {
    tally += (tally.empty() ? "" : " ") + kind + "=" + std::to_string(n);
  }
  return {tally, hex(h)};
}

std::string truncated(std::uint64_t seed, const std::string& text) {
  return Corruptor(seed).truncate_text(
      text, static_cast<double>(seed) / 65.0);
}

std::string garbled(std::uint64_t seed, const std::string& text) {
  return Corruptor(seed).garble_text(text, 1 + seed % 3);
}

std::string duplicated(std::uint64_t seed, const std::string& text) {
  return Corruptor(seed).duplicate_line(text);
}

TEST(XmGolden, CorruptorSweeps) {
  const std::string paper = x_matrix_to_string(paper_example_x_matrix());
  const std::string ckt_b = x_matrix_to_string(ckt_b_small());
  struct Expected {
    const char* name;
    Sweep got;
    const char* tally;
    const char* hash;
  };
  const std::vector<Expected> sweeps = {
      {"paper truncate", sweep(paper, truncated),
       "garbled-input=14 truncated-input=50", "cd92eafc726c1af5"},
      {"paper garble", sweep(paper, garbled), "garbled-input=64",
       "d7244695acd1bb80"},
      {"paper duplicate", sweep(paper, duplicated),
       "duplicate-record=56 trailing-garbage=8", "be55424a60c9a5f5"},
      {"ckt-b truncate", sweep(ckt_b, truncated),
       "duplicate-record=2 garbled-input=5 truncated-input=57",
       "58e3fa27c1734825"},
      {"ckt-b garble", sweep(ckt_b, garbled),
       "duplicate-record=1 garbled-input=63", "cf5c6a525098da60"},
      {"ckt-b duplicate", sweep(ckt_b, duplicated), "duplicate-record=64",
       "9ee18aed1f2f63b0"},
  };
  for (const Expected& s : sweeps) {
    EXPECT_EQ(s.got.tally, s.tally) << s.name;
    EXPECT_EQ(s.got.hash, s.hash) << s.name;
  }
}

}  // namespace
}  // namespace xh
