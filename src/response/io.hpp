// Plain-text serialization for response data, so X-location matrices and
// captured responses can move between tools (and into/out of the CLI).
//
// XMatrix format (.xm; sparse; one line per X-capturing cell, then a trailer
// that makes truncation detectable):
//   xmatrix v1 <num_chains> <chain_length> <num_patterns>
//   <cell> <pattern> <pattern> ...
//   ...
//   end <total_x>
//
// The grammar read_x_matrix enforces (DESIGN.md §7):
//   * Every number is an unsigned decimal that fits in 64 bits: digits
//     only, leading zeros allowed, no sign.
//   * Blanks are space, tab, CR, vertical tab and form feed. They separate
//     fields and may lead or trail any line, so CRLF reads like LF. Lines
//     end at LF. Empty lines are skipped; a line of blanks is not empty.
//   * The five header fields may be split by any whitespace, newlines
//     included; the rest of the line holding the fifth must be blank. No
//     count may be 0, num_chains x chain_length must fit in 64 bits, and
//     num_patterns may not exceed XMatrix::kMaxPatterns (4,294,967,295).
//   * A cell line holds a cell index below num_chains x chain_length, then
//     one or more pattern indices below num_patterns (repeats allowed). A
//     cell has at most one line; lines may come in any order.
//   * The trailer line starts with `end`, then blanks and the number of
//     distinct X's read. Only empty lines may follow it.
//
// Every refusal records one error diagnostic (when a collector is passed)
// and throws std::invalid_argument("response io: <message>"):
//   * kTruncatedInput: the stream ended before the fifth header field, the
//     trailer is missing, or its count disagrees with the X's read;
//   * kGarbledInput: a malformed header, cell line or trailer, an index out
//     of range, or anything but blanks after the header fields;
//   * kDuplicateRecord: a second line for one cell;
//   * kTrailingGarbage: a non-empty line after the trailer;
//   * kStreamFailure: the stream failed (badbit) instead of ending.
//
// ResponseMatrix format (dense; one row string per pattern, chars 0/1/X),
// with the same header rules:
//   response v1 <num_chains> <chain_length> <num_patterns>
//   01X10...
//   ...
// Its reader refuses row-width mismatches, rows after the last pattern and
// truncation with the same diagnostic kinds.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/trace.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/diagnostics.hpp"

namespace xh {

void write_x_matrix(const XMatrix& xm, std::ostream& out);
/// Reads in one pass over 64 KiB blocks and appends each cell's pattern row
/// once; nothing is sized by the header's declared cell count. The
/// optional trace receives response_io.* counters (lines parsed, cell
/// records, X entries); nullptr means no instrumentation.
[[nodiscard]] XMatrix read_x_matrix(std::istream& in,
                                    Diagnostics* diags = nullptr,
                                    Trace* trace = nullptr);

void write_response(const ResponseMatrix& rm, std::ostream& out);
[[nodiscard]] ResponseMatrix read_response(std::istream& in,
                                           Diagnostics* diags = nullptr,
                                           Trace* trace = nullptr);

/// String conveniences (used by tests and the CLI).
[[nodiscard]] std::string x_matrix_to_string(const XMatrix& xm);
[[nodiscard]] XMatrix x_matrix_from_string(const std::string& text,
                                           Diagnostics* diags = nullptr,
                                           Trace* trace = nullptr);
[[nodiscard]] std::string response_to_string(const ResponseMatrix& rm);
[[nodiscard]] ResponseMatrix response_from_string(
    const std::string& text, Diagnostics* diags = nullptr,
    Trace* trace = nullptr);

}  // namespace xh
