#include "response/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <istream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "core/paper_example.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

TEST(ResponseIo, XMatrixRoundTripPaperExample) {
  const XMatrix original = paper_example_x_matrix();
  const XMatrix loaded =
      x_matrix_from_string(x_matrix_to_string(original));
  EXPECT_EQ(loaded.total_x(), original.total_x());
  EXPECT_EQ(loaded.num_patterns(), original.num_patterns());
  EXPECT_TRUE(loaded.geometry() == original.geometry());
  for (const std::size_t cell : original.x_cells()) {
    EXPECT_TRUE(loaded.patterns_of(cell) == original.patterns_of(cell));
  }
}

TEST(ResponseIo, XMatrixRoundTripWorkload) {
  const XMatrix original =
      generate_workload(scaled_profile(ckt_b_profile(), 0.05));
  const XMatrix loaded =
      x_matrix_from_string(x_matrix_to_string(original));
  EXPECT_EQ(loaded.total_x(), original.total_x());
  EXPECT_TRUE(std::ranges::equal(loaded.x_cells(), original.x_cells()));
}

TEST(ResponseIo, ResponseRoundTrip) {
  const ResponseMatrix original = paper_example_response(12);
  const ResponseMatrix loaded =
      response_from_string(response_to_string(original));
  EXPECT_EQ(loaded.num_patterns(), original.num_patterns());
  for (std::size_t p = 0; p < original.num_patterns(); ++p) {
    EXPECT_EQ(loaded.row_string(p), original.row_string(p));
  }
}

TEST(ResponseIo, HeaderIsHumanReadable) {
  const std::string text = x_matrix_to_string(paper_example_x_matrix());
  EXPECT_EQ(text.substr(0, 16), "xmatrix v1 5 3 8");
}

TEST(ResponseIo, RejectsBadMagicAndVersion) {
  EXPECT_THROW(x_matrix_from_string("nonsense v1 2 2 2\n"),
               std::invalid_argument);
  EXPECT_THROW(x_matrix_from_string("xmatrix v9 2 2 2\n"),
               std::invalid_argument);
  EXPECT_THROW(response_from_string("xmatrix v1 2 2 2\n"),
               std::invalid_argument);
}

TEST(ResponseIo, RejectsDegenerateGeometry) {
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 0 3 8\n"),
               std::invalid_argument);
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 3 0\n"),
               std::invalid_argument);
}

TEST(ResponseIo, RejectsOutOfRangeEntries) {
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n9 0\n"),
               std::invalid_argument);
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0 7\n"),
               std::invalid_argument);
}

TEST(ResponseIo, RejectsMalformedRows) {
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0\n"),
               std::invalid_argument);
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0 1 junk\n"),
               std::invalid_argument);
  EXPECT_THROW(response_from_string("response v1 2 2 2\n01X\n0000\n"),
               std::invalid_argument);
  EXPECT_THROW(response_from_string("response v1 2 2 2\n01X0\n"),
               std::invalid_argument);
  EXPECT_THROW(response_from_string("response v1 2 2 1\n01Q0\n"),
               std::invalid_argument);
}

TEST(ResponseIo, EmptyXMatrixSerializes) {
  const XMatrix empty({2, 3}, 5);
  const XMatrix loaded = x_matrix_from_string(x_matrix_to_string(empty));
  EXPECT_EQ(loaded.total_x(), 0u);
  EXPECT_EQ(loaded.num_patterns(), 5u);
}

TEST(ResponseIo, RejectsDuplicateCellRecords) {
  Diagnostics diags;
  EXPECT_THROW(
      x_matrix_from_string("xmatrix v1 2 2 4\n0 1\n0 2\nend 2\n", &diags),
      std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kDuplicateRecord), 1u);
}

TEST(ResponseIo, RejectsMissingTrailer) {
  Diagnostics diags;
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0 1\n", &diags),
               std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kTruncatedInput), 1u);
}

TEST(ResponseIo, RejectsTrailerCountMismatch) {
  // A lost cell record keeps the file syntactically valid line by line;
  // only the trailer count exposes it.
  Diagnostics diags;
  EXPECT_THROW(
      x_matrix_from_string("xmatrix v1 2 2 4\n0 1\nend 5\n", &diags),
      std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kTruncatedInput), 1u);
}

TEST(ResponseIo, RejectsContentAfterTrailer) {
  Diagnostics diags;
  EXPECT_THROW(
      x_matrix_from_string("xmatrix v1 2 2 4\n0 1\nend 1\n1 2\n", &diags),
      std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kTrailingGarbage), 1u);
}

TEST(ResponseIo, RejectsMalformedTrailer) {
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0 1\nend\n"),
               std::invalid_argument);
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n0 1\nend 1 junk\n"),
               std::invalid_argument);
}

TEST(ResponseIo, NumericFieldsAreUnsignedDecimals) {
  // A sign or a 64-bit overflow is junk wherever a cell, pattern or trailer
  // number sits, even as the last field of its line.
  for (const char* body :
       {"0 1 99999999999999999999999\nend 1\n", "+0 +1\nend 1\n",
        "-0 1\nend 1\n", "0 1\nend +1\n", "0 1 -\nend 1\n",
        "0 1+2\nend 2\n"}) {
    Diagnostics diags;
    EXPECT_THROW(x_matrix_from_string(
                     std::string("xmatrix v1 2 2 4\n") + body, &diags),
                 std::invalid_argument)
        << body;
    EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u) << body;
  }
  // -1 is a malformed field, not a cell index that wrapped to 2^64 - 1.
  Diagnostics diags;
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 2 2 4\n-1 1\nend 1\n", &diags),
               std::invalid_argument);
  ASSERT_EQ(diags.records().size(), 1u);
  EXPECT_EQ(diags.records()[0].message, "malformed cell line: -1 1");
}

TEST(ResponseIo, RejectsContentAfterTheHeaderFields) {
  for (const char* text : {"xmatrix v1 75 481 15?0\n0 14\nend 1\n",
                           "xmatrix v1 2 2 4 junk\n0 1\nend 1\n",
                           "xmatrix v1 2 2 +4\n0 1\nend 1\n"}) {
    Diagnostics diags;
    EXPECT_THROW(x_matrix_from_string(text, &diags), std::invalid_argument)
        << text;
    EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u) << text;
  }
  // The response reader shares the header checks.
  Diagnostics diags;
  EXPECT_THROW(response_from_string("response v1 2 2 1 junk\n01X0\n", &diags),
               std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u);
}

TEST(ResponseIo, JunkHeaderFieldIsGarbledNotTruncated) {
  Diagnostics diags;
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 5 3 ?\n", &diags),
               std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u);
  EXPECT_EQ(diags.count(DiagKind::kTruncatedInput), 0u);
  // Only a stream that ends before the fifth field is truncated.
  Diagnostics at_eof;
  EXPECT_THROW(x_matrix_from_string("xmatrix v1 5 3", &at_eof),
               std::invalid_argument);
  EXPECT_EQ(at_eof.count(DiagKind::kTruncatedInput), 1u);
}

TEST(ResponseIo, RejectsCellCountOverflowWithDiagnostic) {
  // 2^32 x 2^32 wraps to 0 cells; (2^64 - 1) x 2 wraps to 2^64 - 2.
  for (const char* text :
       {"xmatrix v1 4294967296 4294967296 4\n0 1\nend 1\n",
        "xmatrix v1 18446744073709551615 2 4\n0 1\nend 1\n"}) {
    Diagnostics diags;
    EXPECT_THROW(x_matrix_from_string(text, &diags), std::invalid_argument)
        << text;
    EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u) << text;
  }
  Diagnostics diags;
  EXPECT_THROW(
      response_from_string("response v1 4294967296 4294967296 1\n", &diags),
      std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kGarbledInput), 1u);
}

TEST(ResponseIo, XMatrixRoundTripAcrossReadBlocks) {
  // Many 64 KiB read blocks, and one cell line longer than several.
  XMatrix::Builder builder({4, 8}, 200000);
  for (std::size_t p = 0; p < 200000; p += 2) builder.add_x(0, p);
  for (std::size_t p = 0; p < 200000; p += 7) builder.add_x(31, p);
  builder.add_x(9, 199999);
  const XMatrix original = builder.freeze();
  const std::string text = x_matrix_to_string(original);
  ASSERT_GT(text.size(), 500000u);
  const XMatrix loaded = x_matrix_from_string(text);
  EXPECT_EQ(loaded.total_x(), original.total_x());
  EXPECT_TRUE(std::ranges::equal(loaded.x_cells(), original.x_cells()));
  for (const std::size_t cell : original.x_cells()) {
    EXPECT_TRUE(loaded.patterns_of(cell) == original.patterns_of(cell));
  }
}

TEST(ResponseIo, RejectsRowsAfterLastDeclaredPattern) {
  Diagnostics diags;
  EXPECT_THROW(
      response_from_string("response v1 2 2 1\n01X0\n1100\n", &diags),
      std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kTrailingGarbage), 1u);
}

TEST(ResponseIo, AllowsTrailingBlankLines) {
  const ResponseMatrix rm =
      response_from_string("response v1 2 2 1\n01X0\n\n\n");
  EXPECT_EQ(rm.num_patterns(), 1u);
  EXPECT_EQ(rm.row_string(0), "01X0");
}

TEST(ResponseIo, RejectsTruncatedResponseAsTruncation) {
  Diagnostics diags;
  EXPECT_THROW(response_from_string("response v1 2 2 3\n01X0\n", &diags),
               std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kTruncatedInput), 1u);
  EXPECT_EQ(diags.count(DiagKind::kStreamFailure), 0u);
}

/// Streambuf that yields a fixed prefix, then fails at the stream level —
/// the shape of a mid-read disk error, as opposed to a short-but-clean file.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::string prefix) : prefix_(std::move(prefix)) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk error"); }

 private:
  std::string prefix_;
};

TEST(ResponseIo, DistinguishesStreamFailureFromCleanEof) {
  FailingBuf buf("xmatrix v1 2 2 4\n0 1\n");
  std::istream in(&buf);
  Diagnostics diags;
  EXPECT_THROW(read_x_matrix(in, &diags), std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kStreamFailure), 1u);
  EXPECT_EQ(diags.count(DiagKind::kTruncatedInput), 0u);
}

TEST(ResponseIo, DistinguishesStreamFailureInResponseRows) {
  FailingBuf buf("response v1 2 2 2\n01X0\n");
  std::istream in(&buf);
  Diagnostics diags;
  EXPECT_THROW(read_response(in, &diags), std::invalid_argument);
  EXPECT_EQ(diags.count(DiagKind::kStreamFailure), 1u);
}

}  // namespace
}  // namespace xh
