#include "response/io.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace xh {
namespace {

/// Bytes per istream::read / ostream::write call.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

/// Records a structured diagnostic (when a collector is attached), then
/// throws — serialized-input damage is always a hard parse failure; the
/// collector adds the machine-readable kind and location for callers that
/// need to classify it.
[[noreturn]] void format_error(Diagnostics* diags, DiagKind kind,
                               const std::string& what) {
  diag_report(diags, DiagSeverity::kError, kind, "response io", what);
  throw std::invalid_argument("response io: " + what);
}

/// The field separators: the C locale's whitespace except the newline, so a
/// CR before the LF is a blank like any other.
constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool all_blank(std::string_view text) {
  return std::all_of(text.begin(), text.end(), is_blank);
}

std::size_t header_field(const std::string& token, Diagnostics* diags) {
  try {
    return parse_size(token);
  } catch (const std::invalid_argument&) {
    format_error(diags, DiagKind::kGarbledInput,
                 "malformed header field '" + token + "'");
  }
}

/// Reads `<magic> v1 <num_chains> <chain_length> <num_patterns>` (fields
/// separated by any whitespace) and the rest of its line, which must be
/// blank. Only a stream that ends before the fifth field is truncated.
ScanGeometry read_header(std::istream& in, const char* magic,
                         std::size_t& num_patterns, Diagnostics* diags) {
  std::string word;
  std::string version;
  std::string chains;
  std::string length;
  std::string patterns;
  if (!(in >> word >> version >> chains >> length >> patterns)) {
    if (in.bad()) {
      format_error(diags, DiagKind::kStreamFailure,
                   "stream I/O failure while reading header (badbit set)");
    }
    format_error(diags, DiagKind::kTruncatedInput, "truncated header");
  }
  if (word != magic) {
    format_error(diags, DiagKind::kGarbledInput,
                 "expected '" + std::string(magic) + "'");
  }
  if (version != "v1") {
    format_error(diags, DiagKind::kGarbledInput,
                 "unsupported version " + version);
  }
  ScanGeometry geo;
  geo.num_chains = header_field(chains, diags);
  geo.chain_length = header_field(length, diags);
  num_patterns = header_field(patterns, diags);
  if (geo.num_chains == 0 || geo.chain_length == 0 || num_patterns == 0) {
    format_error(diags, DiagKind::kGarbledInput, "degenerate geometry");
  }
  if (geo.num_chains > SIZE_MAX / geo.chain_length) {
    format_error(diags, DiagKind::kGarbledInput,
                 "cell count overflows: " + chains + " chains x " + length +
                     " cells");
  }
  if (num_patterns > XMatrix::kMaxPatterns) {
    format_error(diags, DiagKind::kGarbledInput,
                 "pattern count " + patterns + " above the limit " +
                     std::to_string(XMatrix::kMaxPatterns));
  }
  std::string rest;
  std::getline(in, rest);
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure while reading header (badbit set)");
  }
  if (!all_blank(rest)) {
    format_error(diags, DiagKind::kGarbledInput,
                 "content after the header fields: " + rest);
  }
  return geo;
}

/// Clean-EOF / truncation / badbit triage after a failed getline.
[[noreturn]] void missing_data_error(std::istream& in, Diagnostics* diags,
                                     const std::string& what) {
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure (badbit set) — " + what);
  }
  format_error(diags, DiagKind::kTruncatedInput, what);
}

/// Hands every line of the rest of @p in to @p on_line, without its '\n',
/// reading kBlockBytes at a time. A last line with no '\n' is handed over
/// at a clean EOF and dropped when the stream fails (the caller checks
/// in.bad() afterwards).
template <typename OnLine>
void for_each_line(std::istream& in, OnLine&& on_line) {
  std::vector<char> buf(kBlockBytes);
  std::size_t carry = 0;  // bytes of an unfinished line at the front of buf
  for (;;) {
    if (buf.size() - carry < kBlockBytes) {
      buf.resize(std::max(2 * buf.size(), carry + kBlockBytes));
    }
    in.read(buf.data() + carry, static_cast<std::streamsize>(kBlockBytes));
    const char* line = buf.data();
    const char* scan = line + carry;  // the carried bytes hold no '\n'
    const char* const end = scan + in.gcount();
    while (const void* nl = std::memchr(scan, '\n',
                                        static_cast<std::size_t>(end - scan))) {
      const char* const stop = static_cast<const char*>(nl);
      on_line(std::string_view(line, static_cast<std::size_t>(stop - line)));
      line = scan = stop + 1;
    }
    carry = static_cast<std::size_t>(end - line);
    if (!in) {
      if (!in.bad() && carry != 0) on_line(std::string_view(line, carry));
      return;
    }
    std::memmove(buf.data(), line, carry);
  }
}

enum class Field { kNumber, kEnd, kBad };

/// Skips blanks, then reads a digit run that must fit in 64 bits. kEnd:
/// only blanks remain. kBad: no digit run starts there (a sign, junk) or it
/// overflows. On kNumber @p p stops right after the digits, so junk glued
/// to a number is the next, bad, field.
Field next_field(const char*& p, const char* end, std::uint64_t& value) {
  while (p != end && is_blank(*p)) ++p;
  if (p == end) return Field::kEnd;
  const auto [stop, ec] = std::from_chars(p, end, value);
  if (ec != std::errc()) return Field::kBad;
  p = stop;
  return Field::kNumber;
}

/// `end <total_x>`: the caller has matched the keyword.
void read_trailer(std::string_view line, std::size_t total_x,
                  Diagnostics* diags) {
  const char* p = line.data() + 3;
  const char* const end = line.data() + line.size();
  std::uint64_t declared_total = 0;
  if (next_field(p, end, declared_total) != Field::kNumber ||
      !all_blank(std::string_view(p, static_cast<std::size_t>(end - p)))) {
    format_error(diags, DiagKind::kGarbledInput,
                 "malformed trailer: " + std::string(line));
  }
  if (declared_total != total_x) {
    format_error(diags, DiagKind::kTruncatedInput,
                 "trailer declares " + std::to_string(declared_total) +
                     " X's but " + std::to_string(total_x) +
                     " were read — cell records lost or duplicated in "
                     "transit");
  }
}

[[noreturn]] void out_of_range(Diagnostics* diags, const char* what,
                               std::uint64_t index, std::size_t limit) {
  format_error(diags, DiagKind::kGarbledInput,
               std::string(what) + " " + std::to_string(index) +
                   " not below " + std::to_string(limit) + " — " + what +
                   " index out of range");
}

/// `<cell> <pattern> <pattern> ...`. A bad line reports its first fault in
/// this order (XmGolden pins it): the cell field, a duplicate cell, then per
/// pattern field the cell's range and the pattern's range, then a line with
/// no pattern field, then junk after the patterns. @p seen holds the cells
/// of the lines accepted so far: the duplicate check asks it, not the
/// builder, whose cell index would be sized by the header's cell count.
/// @p row is the line's pattern row, reused from line to line and sized on
/// the first line that has a pattern field.
void read_cell_line(std::string_view line, XMatrix::Builder& xm, BitVec& row,
                    std::unordered_set<std::uint64_t>& seen,
                    Diagnostics* diags, TraceCounterHandle cell_records,
                    TraceCounterHandle x_entries) {
  const char* p = line.data();
  const char* const end = p + line.size();
  std::uint64_t cell = 0;
  if (next_field(p, end, cell) != Field::kNumber) {
    format_error(diags, DiagKind::kGarbledInput,
                 "malformed cell line: " + std::string(line));
  }
  if (seen.contains(cell)) {
    format_error(diags, DiagKind::kDuplicateRecord,
                 "cell " + std::to_string(cell) + " recorded twice");
  }
  obs_add(cell_records);
  std::uint64_t entries = 0;
  std::uint64_t pattern = 0;
  Field field = Field::kEnd;
  while ((field = next_field(p, end, pattern)) == Field::kNumber) {
    if (entries == 0) {
      if (cell >= xm.num_cells()) {
        out_of_range(diags, "cell", cell, xm.num_cells());
      }
      row.resize(xm.num_patterns());
      row.fill(false);
    }
    if (pattern >= xm.num_patterns()) {
      obs_add(x_entries, entries);
      out_of_range(diags, "pattern", pattern, xm.num_patterns());
    }
    // In range, so the tail bits stay zero; BitVec::set would re-check.
    row.word_data()[pattern / 64] |= std::uint64_t{1} << (pattern % 64);
    ++entries;
  }
  obs_add(x_entries, entries);
  if (entries == 0) {
    format_error(diags, DiagKind::kGarbledInput,
                 "cell with no patterns: " + std::string(line));
  }
  if (field == Field::kBad) {
    format_error(diags, DiagKind::kGarbledInput,
                 "trailing garbage: " + std::string(line));
  }
  xm.append_row(cell, row);
  seen.insert(cell);
}

/// Decimal numbers and separators into a block that goes to the stream
/// whenever it fills.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out)
      : out_(out), buf_(kBlockBytes + kMaxPut) {}
  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  void text(std::string_view s) {
    for (const char c : s) put(c);
  }
  void put(char c) {
    buf_[size_++] = c;
    if (size_ >= kBlockBytes) flush();
  }
  void number(std::uint64_t v) {
    const auto [stop, ec] =
        std::to_chars(buf_.data() + size_, buf_.data() + buf_.size(), v);
    XH_ASSERT(ec == std::errc(), "block writer headroom");
    size_ = static_cast<std::size_t>(stop - buf_.data());
    if (size_ >= kBlockBytes) flush();
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }

 private:
  /// Headroom past kBlockBytes: the 20 digits of the largest uint64.
  static constexpr std::size_t kMaxPut = 20;

  std::ostream& out_;
  std::vector<char> buf_;
  std::size_t size_ = 0;
};

}  // namespace

void write_x_matrix(const XMatrix& xm, std::ostream& out) {
  BlockWriter w(out);
  w.text("xmatrix v1 ");
  w.number(xm.geometry().num_chains);
  w.put(' ');
  w.number(xm.geometry().chain_length);
  w.put(' ');
  w.number(xm.num_patterns());
  w.put('\n');
  const std::span<const std::uint64_t> cells = xm.x_cells();
  for (std::size_t r = 0; r < cells.size(); ++r) {
    w.number(cells[r]);
    const std::uint64_t* row = xm.row_words(r);
    for (std::size_t i = 0; i < xm.words_per_row(); ++i) {
      for (std::uint64_t bits = row[i]; bits != 0; bits &= bits - 1) {
        w.put(' ');
        w.number(64 * i + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
    w.put('\n');
  }
  w.text("end ");
  w.number(xm.total_x());
  w.put('\n');
  w.flush();
}

XMatrix read_x_matrix(std::istream& in, Diagnostics* diags, Trace* trace) {
  std::size_t num_patterns = 0;
  const ScanGeometry geo = read_header(in, "xmatrix", num_patterns, diags);
  XMatrix::Builder xm(geo, num_patterns);
  BitVec row;
  std::unordered_set<std::uint64_t> seen;
  const TraceCounterHandle lines_parsed =
      obs_counter(trace, "response_io.lines_parsed");
  const TraceCounterHandle cell_records =
      obs_counter(trace, "response_io.cell_records");
  const TraceCounterHandle x_entries =
      obs_counter(trace, "response_io.x_entries");
  bool saw_trailer = false;
  for_each_line(in, [&](std::string_view line) {
    if (line.empty()) return;
    obs_add(lines_parsed);
    if (saw_trailer) {
      format_error(diags, DiagKind::kTrailingGarbage,
                   "content after 'end' trailer: " + std::string(line));
    }
    if (line.starts_with("end ") || line == "end") {
      read_trailer(line, xm.total_x(), diags);
      saw_trailer = true;
      return;
    }
    read_cell_line(line, xm, row, seen, diags, cell_records, x_entries);
  });
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure while reading cell records "
                 "(badbit set)");
  }
  if (!saw_trailer) {
    format_error(diags, DiagKind::kTruncatedInput,
                 "missing 'end' trailer — input truncated");
  }
  return xm.freeze();
}

void write_response(const ResponseMatrix& rm, std::ostream& out) {
  out << "response v1 " << rm.geometry().num_chains << ' '
      << rm.geometry().chain_length << ' ' << rm.num_patterns() << '\n';
  for (std::size_t p = 0; p < rm.num_patterns(); ++p) {
    out << rm.row_string(p) << '\n';
  }
}

ResponseMatrix read_response(std::istream& in, Diagnostics* diags,
                             Trace* trace) {
  std::size_t num_patterns = 0;
  const ScanGeometry geo = read_header(in, "response", num_patterns, diags);
  ResponseMatrix rm(geo, num_patterns);
  std::string line;
  for (std::size_t p = 0; p < num_patterns; ++p) {
    if (!std::getline(in, line)) {
      missing_data_error(in, diags,
                         "expected " + std::to_string(num_patterns) +
                             " pattern rows, got " + std::to_string(p));
    }
    obs_count(trace, "response_io.lines_parsed");
    obs_count(trace, "response_io.pattern_rows");
    if (line.size() != geo.num_cells()) {
      format_error(diags, DiagKind::kGarbledInput,
                   "row width mismatch at pattern " + std::to_string(p));
    }
    for (std::size_t c = 0; c < line.size(); ++c) {
      try {
        rm.set(p, c, lv_from_char(line[c]));
      } catch (const std::invalid_argument& e) {
        format_error(diags, DiagKind::kGarbledInput,
                     "pattern " + std::to_string(p) + ": " + e.what());
      }
    }
  }
  // Anything non-empty after the last declared pattern is suspicious:
  // either the header undercounts or rows were duplicated in transit.
  while (std::getline(in, line)) {
    if (!line.empty()) {
      format_error(diags, DiagKind::kTrailingGarbage,
                   "content after the last pattern row: " + line);
    }
  }
  if (in.bad()) {
    format_error(diags, DiagKind::kStreamFailure,
                 "stream I/O failure while reading pattern rows "
                 "(badbit set)");
  }
  return rm;
}

std::string x_matrix_to_string(const XMatrix& xm) {
  std::ostringstream os;
  write_x_matrix(xm, os);
  return os.str();
}

XMatrix x_matrix_from_string(const std::string& text, Diagnostics* diags,
                             Trace* trace) {
  std::istringstream is(text);
  return read_x_matrix(is, diags, trace);
}

std::string response_to_string(const ResponseMatrix& rm) {
  std::ostringstream os;
  write_response(rm, os);
  return os.str();
}

ResponseMatrix response_from_string(const std::string& text,
                                    Diagnostics* diags, Trace* trace) {
  std::istringstream is(text);
  return read_response(is, diags, trace);
}

}  // namespace xh
