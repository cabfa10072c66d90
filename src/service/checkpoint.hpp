// Crash-safe serialization of a PartitionEngine round boundary (xh-ckpt/1).
//
// A checkpoint binds an EngineSnapshot to the identity of the run that
// produced it — scan geometry, pattern count, total X population, and the
// full PartitionerConfig — so a resume can refuse to graft saved state
// onto a different matrix or configuration (checkpoint_matches()). The
// format is line-oriented text in the spirit of response/io.hpp:
//
//   xh-ckpt v1
//   geometry <num_chains> <chain_length> <num_patterns> <total_x>
//   config <misr_size> <misr_q> <stop> <max_rounds> <singletons> <choice> <seed>
//   store <backend>                               (csr | mmap)
//   isa <name>                    (optional: scalar | avx2 | avx512)
//   state <round> <done>
//   rng <s0> <s1> <s2> <s3>                       (hex)
//   parts <count>
//   part <word> <word> ...                        (hex BitVec words)
//   history <count>
//   hist <round> <parts> <masked> <leaked> <cell> <accepted> <bits>
//   end <fnv1a64>                                 (hex, of all bytes above)
//
// total_bits doubles travel as hex-encoded bit patterns ("bits" above), so
// a round-trip is bit-exact — no decimal-formatting drift can break the
// resume-equals-uninterrupted pin. save_checkpoint() writes to a sibling
// .tmp file and renames it into place, so a crash mid-write leaves either
// the previous checkpoint or none — never a torn file; the trailing
// checksum line catches truncation and garbling of whatever does land.
//
// Loaders never throw on bad data: corruption is an *expected* production
// event (that is the point of the chaos suite), reported through the
// Diagnostics collector as kCheckpointCorrupt / kStreamFailure, and the
// caller falls back to a fresh run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "engine/partition_types.hpp"
#include "response/geometry.hpp"
#include "util/diagnostics.hpp"

namespace xh {

struct ServiceCheckpoint {
  ScanGeometry geometry;
  std::size_t num_patterns = 0;
  std::uint64_t total_x = 0;
  PartitionerConfig config;
  /// XMatrixStore::backend_name() of the store the snapshot was taken
  /// against. Every backend yields bit-identical snapshots, but recording
  /// the identity keeps resumes auditable and lets checkpoint_matches()
  /// refuse a graft onto a store the operator did not intend.
  std::string backend = "csr";
  /// kernels::active().name of the dispatch table the snapshot was computed
  /// under. Informational-but-checked, like `backend`: every ISA tier is
  /// differentially pinned bit-identical, yet a resume that silently crosses
  /// tiers would make any future divergence unauditable, so
  /// checkpoint_matches() refuses the graft and the caller demotes to a
  /// fresh run. Empty means the checkpoint predates the field (pre-kernels
  /// xh-ckpt/1 files have no isa line) and matches any ISA.
  std::string isa;
  EngineSnapshot snapshot;
};

/// Serializes @p ckpt into the xh-ckpt/1 text form, checksum included.
[[nodiscard]] std::string checkpoint_to_string(const ServiceCheckpoint& ckpt);

/// Parses an xh-ckpt/1 document. Any structural defect — bad header,
/// short/garbled lines, checksum mismatch, inconsistent counts — is
/// reported as an error on @p diags and yields nullopt.
[[nodiscard]] std::optional<ServiceCheckpoint> checkpoint_from_string(
    const std::string& text, Diagnostics* diags = nullptr);

/// Atomically replaces @p path with the serialized checkpoint (write to
/// "<path>.tmp", then rename). Returns false (with a kStreamFailure
/// diagnostic) when the filesystem refuses; the previous file survives.
[[nodiscard]] bool save_checkpoint(const ServiceCheckpoint& ckpt,
                                   const std::string& path,
                                   Diagnostics* diags = nullptr);

/// Reads and parses @p path. A missing file is a clean nullopt with no
/// diagnostic (the normal first-run case); unreadable or corrupt content
/// diagnoses like checkpoint_from_string().
[[nodiscard]] std::optional<ServiceCheckpoint> load_checkpoint(
    const std::string& path, Diagnostics* diags = nullptr);

/// True when the checkpoint was taken from a run with this exact identity
/// (geometry, pattern count, X population, configuration, storage backend,
/// kernel ISA). A checkpoint with an empty isa field (written before the
/// kernel layer existed) matches any @p isa. On mismatch, fills @p why
/// (when non-null) with a human-readable reason.
[[nodiscard]] bool checkpoint_matches(const ServiceCheckpoint& ckpt,
                                      const ScanGeometry& geometry,
                                      std::size_t num_patterns,
                                      std::uint64_t total_x,
                                      const PartitionerConfig& config,
                                      const std::string& backend,
                                      const std::string& isa,
                                      std::string* why = nullptr);

}  // namespace xh
