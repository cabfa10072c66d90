#include "service/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/bitvec.hpp"

namespace xh {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string to_hex(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), kDigits[v & 0xf]);
    v >>= 4;
  } while (v != 0);
  return out;
}

bool parse_hex_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool parse_dec_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(std::move(tok));
  return out;
}

/// Cursor over the document's lines with uniform failure reporting.
struct LineReader {
  std::vector<std::string> lines;
  std::size_t next = 0;
  Diagnostics* diags = nullptr;
  bool failed = false;

  bool fail(const std::string& message) {
    failed = true;
    diag_report(diags, DiagSeverity::kError, DiagKind::kCheckpointCorrupt,
                "xh-ckpt line " + std::to_string(next), message);
    return false;
  }

  /// Next line split into tokens; requires the tag and exact arity.
  bool take(const std::string& tag, std::size_t arity,
            std::vector<std::string>* tokens) {
    if (next >= lines.size()) return fail("truncated: expected '" + tag + "'");
    *tokens = split_tokens(lines[next]);
    ++next;
    if (tokens->empty() || (*tokens)[0] != tag) {
      return fail("expected '" + tag + "' record");
    }
    const std::size_t args = tokens->size() - 1;
    if (args != arity) {
      return fail("'" + tag + "' field count " + std::to_string(args) +
                  " != " + std::to_string(arity));
    }
    return true;
  }

  bool dec(const std::string& text, std::uint64_t* out) {
    return parse_dec_u64(text, out) || fail("bad integer '" + text + "'");
  }
  bool hex(const std::string& text, std::uint64_t* out) {
    return parse_hex_u64(text, out) || fail("bad hex field '" + text + "'");
  }
  bool flag(const std::string& text, bool* out) {
    if (text != "0" && text != "1") return fail("bad flag '" + text + "'");
    *out = text == "1";
    return true;
  }
};

}  // namespace

std::string checkpoint_to_string(const ServiceCheckpoint& ckpt) {
  std::ostringstream os;
  os << "xh-ckpt v1\n";
  os << "geometry " << ckpt.geometry.num_chains << ' '
     << ckpt.geometry.chain_length << ' ' << ckpt.num_patterns << ' '
     << ckpt.total_x << '\n';
  const PartitionerConfig& cfg = ckpt.config;
  os << "config " << cfg.misr.size << ' ' << cfg.misr.q << ' '
     << (cfg.stop_on_cost_increase ? 1 : 0) << ' ' << cfg.max_rounds << ' '
     << (cfg.allow_singleton_groups ? 1 : 0) << ' '
     << (cfg.cell_choice == SplitCellChoice::kRandom ? 1 : 0) << ' '
     << cfg.seed << '\n';
  // The isa line is optional in the grammar (pre-kernel-layer checkpoints
  // lack it), so an empty field is simply not written rather than producing
  // an unparseable zero-arity record.
  if (!ckpt.isa.empty()) os << "isa " << ckpt.isa << '\n';
  os << "state " << ckpt.snapshot.round << ' '
     << (ckpt.snapshot.done ? 1 : 0) << '\n';
  os << "rng";
  for (const std::uint64_t lane : ckpt.snapshot.rng_state) {
    os << ' ' << to_hex(lane);
  }
  os << '\n';
  os << "parts " << ckpt.snapshot.partitions.size() << '\n';
  for (const BitVec& patterns : ckpt.snapshot.partitions) {
    os << "part";
    for (std::size_t w = 0; w < patterns.word_count(); ++w) {
      os << ' ' << to_hex(patterns.word(w));
    }
    os << '\n';
  }
  os << "history " << ckpt.snapshot.history.size() << '\n';
  for (const PartitionRound& r : ckpt.snapshot.history) {
    os << "hist " << r.round << ' ' << r.num_partitions << ' ' << r.masked_x
       << ' ' << r.leaked_x << ' ' << r.split_cell << ' '
       << (r.accepted ? 1 : 0) << ' '
       << to_hex(std::bit_cast<std::uint64_t>(r.total_bits)) << '\n';
  }
  std::string body = os.str();
  body += "end " + to_hex(fnv1a64(body)) + "\n";
  return body;
}

std::optional<ServiceCheckpoint> checkpoint_from_string(
    const std::string& text, Diagnostics* diags) {
  // Separate the checksum trailer from the hashed body before anything
  // else: a truncated or appended-to file must die here, not confuse the
  // structural parse below.
  const std::size_t end_pos = text.rfind("\nend ");
  if (!text.starts_with("xh-ckpt v1\n") || end_pos == std::string::npos) {
    diag_report(diags, DiagSeverity::kError, DiagKind::kCheckpointCorrupt,
                "xh-ckpt", "missing xh-ckpt v1 header or end trailer");
    return std::nullopt;
  }
  const std::string body = text.substr(0, end_pos + 1);
  std::vector<std::string> trailer =
      split_tokens(text.substr(end_pos + 1));
  std::uint64_t stored_sum = 0;
  if (trailer.size() != 2 || trailer[0] != "end" ||
      !parse_hex_u64(trailer[1], &stored_sum) ||
      stored_sum != fnv1a64(body)) {
    diag_report(diags, DiagSeverity::kError, DiagKind::kCheckpointCorrupt,
                "xh-ckpt", "checksum mismatch: file is truncated or garbled");
    return std::nullopt;
  }

  LineReader in;
  in.diags = diags;
  std::istringstream body_is(body);
  for (std::string line; std::getline(body_is, line);) {
    in.lines.push_back(std::move(line));
  }

  ServiceCheckpoint ckpt;
  std::vector<std::string> t;
  std::uint64_t v = 0;
  if (!in.take("xh-ckpt", 1, &t) || t[1] != "v1") {
    if (!in.failed) (void)in.fail("unsupported version '" + t[1] + "'");
    return std::nullopt;
  }
  if (!in.take("geometry", 4, &t)) return std::nullopt;
  if (!in.dec(t[1], &v)) return std::nullopt;
  ckpt.geometry.num_chains = static_cast<std::size_t>(v);
  if (!in.dec(t[2], &v)) return std::nullopt;
  ckpt.geometry.chain_length = static_cast<std::size_t>(v);
  if (!in.dec(t[3], &v)) return std::nullopt;
  ckpt.num_patterns = static_cast<std::size_t>(v);
  if (!in.dec(t[4], &ckpt.total_x)) return std::nullopt;
  if (ckpt.num_patterns == 0) {
    (void)in.fail("checkpoint with zero patterns");
    return std::nullopt;
  }

  if (!in.take("config", 7, &t)) return std::nullopt;
  if (!in.dec(t[1], &v)) return std::nullopt;
  ckpt.config.misr.size = static_cast<std::size_t>(v);
  if (!in.dec(t[2], &v)) return std::nullopt;
  ckpt.config.misr.q = static_cast<std::size_t>(v);
  if (!in.flag(t[3], &ckpt.config.stop_on_cost_increase)) return std::nullopt;
  if (!in.dec(t[4], &v)) return std::nullopt;
  ckpt.config.max_rounds = static_cast<std::size_t>(v);
  if (!in.flag(t[5], &ckpt.config.allow_singleton_groups)) return std::nullopt;
  bool random_choice = false;
  if (!in.flag(t[6], &random_choice)) return std::nullopt;
  ckpt.config.cell_choice = random_choice ? SplitCellChoice::kRandom
                                          : SplitCellChoice::kLowestIndex;
  if (!in.dec(t[7], &ckpt.config.seed)) return std::nullopt;

  // Optional isa record: peek before committing, since documents written
  // before the kernel layer go straight from "config" to "state".
  if (in.next < in.lines.size()) {
    const std::vector<std::string> peek = split_tokens(in.lines[in.next]);
    if (!peek.empty() && peek[0] == "isa") {
      if (!in.take("isa", 1, &t)) return std::nullopt;
      ckpt.isa = t[1];
    }
  }

  if (!in.take("state", 2, &t)) return std::nullopt;
  if (!in.dec(t[1], &v)) return std::nullopt;
  ckpt.snapshot.round = static_cast<std::size_t>(v);
  if (!in.flag(t[2], &ckpt.snapshot.done)) return std::nullopt;

  if (!in.take("rng", 4, &t)) return std::nullopt;
  for (std::size_t i = 0; i < 4; ++i) {
    if (!in.hex(t[1 + i], &ckpt.snapshot.rng_state[i])) return std::nullopt;
  }

  if (!in.take("parts", 1, &t)) return std::nullopt;
  std::uint64_t part_count = 0;
  if (!in.dec(t[1], &part_count)) return std::nullopt;
  const std::size_t words = (ckpt.num_patterns + 63) / 64;
  if (part_count == 0 || part_count > ckpt.num_patterns) {
    (void)in.fail("implausible partition count " + std::to_string(part_count));
    return std::nullopt;
  }
  ckpt.snapshot.partitions.reserve(static_cast<std::size_t>(part_count));
  for (std::uint64_t p = 0; p < part_count; ++p) {
    if (!in.take("part", words, &t)) return std::nullopt;
    BitVec patterns(ckpt.num_patterns);
    for (std::size_t w = 0; w < words; ++w) {
      if (!in.hex(t[1 + w], &v)) return std::nullopt;
      patterns.set_word(w, v);
      if (patterns.word(w) != v) {
        (void)in.fail("partition word has bits beyond the pattern count");
        return std::nullopt;
      }
    }
    ckpt.snapshot.partitions.push_back(std::move(patterns));
  }

  if (!in.take("history", 1, &t)) return std::nullopt;
  std::uint64_t hist_count = 0;
  if (!in.dec(t[1], &hist_count)) return std::nullopt;
  if (hist_count == 0 || hist_count > ckpt.num_patterns + 1) {
    (void)in.fail("implausible history length " + std::to_string(hist_count));
    return std::nullopt;
  }
  ckpt.snapshot.history.reserve(static_cast<std::size_t>(hist_count));
  for (std::uint64_t h = 0; h < hist_count; ++h) {
    if (!in.take("hist", 7, &t)) return std::nullopt;
    PartitionRound r;
    if (!in.dec(t[1], &v)) return std::nullopt;
    r.round = static_cast<std::size_t>(v);
    if (!in.dec(t[2], &v)) return std::nullopt;
    r.num_partitions = static_cast<std::size_t>(v);
    if (!in.dec(t[3], &r.masked_x)) return std::nullopt;
    if (!in.dec(t[4], &r.leaked_x)) return std::nullopt;
    if (!in.dec(t[5], &v)) return std::nullopt;
    r.split_cell = static_cast<std::size_t>(v);
    if (!in.flag(t[6], &r.accepted)) return std::nullopt;
    if (!in.hex(t[7], &v)) return std::nullopt;
    r.total_bits = std::bit_cast<double>(v);
    ckpt.snapshot.history.push_back(r);
  }

  if (in.next != in.lines.size()) {
    (void)in.fail("trailing garbage after the history block");
    return std::nullopt;
  }
  return ckpt;
}

bool save_checkpoint(const ServiceCheckpoint& ckpt, const std::string& path,
                     Diagnostics* diags) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      diag_report(diags, DiagSeverity::kError, DiagKind::kStreamFailure, tmp,
                  "cannot open checkpoint temp file for writing");
      return false;
    }
    out << checkpoint_to_string(ckpt);
    out.flush();
    if (!out) {
      diag_report(diags, DiagSeverity::kError, DiagKind::kStreamFailure, tmp,
                  "short write while saving checkpoint");
      std::remove(tmp.c_str());
      return false;
    }
  }
  // POSIX rename is atomic within a filesystem: readers observe either the
  // old complete file or the new complete file, never a prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    diag_report(diags, DiagSeverity::kError, DiagKind::kStreamFailure, path,
                "rename into place failed");
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<ServiceCheckpoint> load_checkpoint(const std::string& path,
                                                 Diagnostics* diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // no checkpoint yet: the normal first run
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    diag_report(diags, DiagSeverity::kError, DiagKind::kStreamFailure, path,
                "I/O error while reading checkpoint");
    return std::nullopt;
  }
  return checkpoint_from_string(buffer.str(), diags);
}

bool checkpoint_matches(const ServiceCheckpoint& ckpt,
                        const ScanGeometry& geometry,
                        std::size_t num_patterns, std::uint64_t total_x,
                        const PartitionerConfig& config,
                        const std::string& isa, std::string* why) {
  const auto mismatch = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (!(ckpt.geometry == geometry)) return mismatch("scan geometry differs");
  if (ckpt.num_patterns != num_patterns) {
    return mismatch("pattern count differs");
  }
  if (ckpt.total_x != total_x) return mismatch("total X population differs");
  const PartitionerConfig& c = ckpt.config;
  if (c.misr.size != config.misr.size || c.misr.q != config.misr.q) {
    return mismatch("MISR configuration differs");
  }
  if (c.stop_on_cost_increase != config.stop_on_cost_increase ||
      c.max_rounds != config.max_rounds ||
      c.allow_singleton_groups != config.allow_singleton_groups ||
      c.cell_choice != config.cell_choice || c.seed != config.seed) {
    return mismatch("partitioner configuration differs");
  }
  if (!ckpt.isa.empty() && ckpt.isa != isa) {
    return mismatch("kernel ISA differs");
  }
  return true;
}

}  // namespace xh
