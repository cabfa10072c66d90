// xh-ckpt/1 codec contract (DESIGN.md §11): a round-boundary checkpoint
// must round-trip bit-exactly (doubles travel as hex bit patterns), the
// trailing FNV checksum must catch truncation and garbling, structural
// defects must diagnose as kCheckpointCorrupt without ever throwing, and
// checkpoint_matches() must refuse to graft saved state onto a different
// matrix or configuration.
#include "service/checkpoint.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "inject/corruptor.hpp"
#include "response/geometry.hpp"
#include "response/x_matrix.hpp"
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/diagnostics.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

XMatrix small_workload(std::uint64_t seed) {
  WorkloadProfile profile;
  profile.name = "ckpt";
  profile.geometry = {6, 24};
  profile.num_patterns = 96;
  profile.x_density = 0.05;
  profile.clustered_fraction = 0.5;
  profile.cluster_cells_mean = 6;
  profile.cluster_patterns_mean = 8;
  profile.seed = seed;
  return generate_workload(profile);
}

PartitionerConfig small_config() {
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.seed = 7;
  return cfg;
}

/// Steps a fresh engine until @p rounds splits were accepted (or the
/// search stopped) and captures the state as a service checkpoint.
ServiceCheckpoint checkpoint_after(const XMatrix& xm,
                                   const PartitionerConfig& cfg,
                                   std::size_t rounds) {
  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
  PartitionEngine engine(*store, cfg);
  std::size_t accepted = 0;
  while (accepted < rounds && !engine.finished()) {
    if (engine.step() == PartitionEngine::StepOutcome::kSplit) ++accepted;
  }
  ServiceCheckpoint ckpt;
  ckpt.geometry = xm.geometry();
  ckpt.num_patterns = xm.num_patterns();
  ckpt.total_x = xm.total_x();
  ckpt.config = cfg;
  ckpt.backend = store->backend_name();
  ckpt.isa = "scalar";  // fixed, so the codec tests are CPU-independent
  ckpt.snapshot = engine.snapshot();
  return ckpt;
}

void expect_same_checkpoint(const ServiceCheckpoint& want,
                            const ServiceCheckpoint& got) {
  EXPECT_TRUE(want.geometry == got.geometry);
  EXPECT_EQ(want.num_patterns, got.num_patterns);
  EXPECT_EQ(want.total_x, got.total_x);
  EXPECT_EQ(want.config.misr.size, got.config.misr.size);
  EXPECT_EQ(want.config.misr.q, got.config.misr.q);
  EXPECT_EQ(want.config.stop_on_cost_increase, got.config.stop_on_cost_increase);
  EXPECT_EQ(want.config.max_rounds, got.config.max_rounds);
  EXPECT_EQ(want.config.allow_singleton_groups, got.config.allow_singleton_groups);
  EXPECT_EQ(want.config.cell_choice, got.config.cell_choice);
  EXPECT_EQ(want.config.seed, got.config.seed);
  EXPECT_EQ(want.backend, got.backend);
  EXPECT_EQ(want.isa, got.isa);
  EXPECT_EQ(want.snapshot.round, got.snapshot.round);
  EXPECT_EQ(want.snapshot.done, got.snapshot.done);
  EXPECT_EQ(want.snapshot.rng_state, got.snapshot.rng_state);
  ASSERT_EQ(want.snapshot.partitions.size(), got.snapshot.partitions.size());
  for (std::size_t i = 0; i < want.snapshot.partitions.size(); ++i) {
    EXPECT_TRUE(want.snapshot.partitions[i] == got.snapshot.partitions[i])
        << "partition " << i;
  }
  ASSERT_EQ(want.snapshot.history.size(), got.snapshot.history.size());
  for (std::size_t i = 0; i < want.snapshot.history.size(); ++i) {
    SCOPED_TRACE("history " + std::to_string(i));
    EXPECT_EQ(want.snapshot.history[i].round, got.snapshot.history[i].round);
    EXPECT_EQ(want.snapshot.history[i].num_partitions,
              got.snapshot.history[i].num_partitions);
    EXPECT_EQ(want.snapshot.history[i].masked_x,
              got.snapshot.history[i].masked_x);
    EXPECT_EQ(want.snapshot.history[i].leaked_x,
              got.snapshot.history[i].leaked_x);
    // Bit-exact: the codec ships the double's bit pattern, not a decimal.
    EXPECT_EQ(want.snapshot.history[i].total_bits,
              got.snapshot.history[i].total_bits);
    EXPECT_EQ(want.snapshot.history[i].split_cell,
              got.snapshot.history[i].split_cell);
    EXPECT_EQ(want.snapshot.history[i].accepted,
              got.snapshot.history[i].accepted);
  }
}

/// Test-side twin of the codec's FNV-1a trailer, for re-signing tampered
/// bodies so structural checks are reached past the checksum gate.
std::string sign(const std::string& body) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  do {
    hex.insert(hex.begin(), kDigits[h & 0xf]);
    h >>= 4;
  } while (h != 0);
  return body + "end " + hex + "\n";
}

/// Serialized text with the checksum trailer stripped.
std::string body_of(const ServiceCheckpoint& ckpt) {
  const std::string text = checkpoint_to_string(ckpt);
  const std::size_t end_pos = text.rfind("\nend ");
  return text.substr(0, end_pos + 1);
}

/// Replaces the whole line starting with @p tag by @p replacement.
std::string swap_line(const std::string& body, const std::string& tag,
                      const std::string& replacement) {
  const std::size_t at = body.find(tag);
  EXPECT_NE(at, std::string::npos) << "no '" << tag << "' line";
  const std::size_t eol = body.find('\n', at);
  return body.substr(0, at) + replacement + body.substr(eol);
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const XMatrix xm = small_workload(11);
  for (const std::size_t rounds : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}, std::size_t{200}}) {
    SCOPED_TRACE("rounds " + std::to_string(rounds));
    const ServiceCheckpoint want = checkpoint_after(xm, small_config(), rounds);
    Diagnostics diags;
    const std::optional<ServiceCheckpoint> got =
        checkpoint_from_string(checkpoint_to_string(want), &diags);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(diags.has_errors());
    expect_same_checkpoint(want, *got);
  }
}

TEST(Checkpoint, RandomCellChoiceRngStateSurvivesTheTrip) {
  const XMatrix xm = small_workload(12);
  PartitionerConfig cfg = small_config();
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 0xfeedULL;
  const ServiceCheckpoint want = checkpoint_after(xm, cfg, 2);
  const std::optional<ServiceCheckpoint> got =
      checkpoint_from_string(checkpoint_to_string(want));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(want.snapshot.rng_state, got->snapshot.rng_state);
}

TEST(Checkpoint, SaveAndLoadRoundTripThroughDisk) {
  const fs::path dir = fresh_dir("xh_ckpt_disk");
  const fs::path path = dir / "job.ckpt";
  const XMatrix xm = small_workload(13);
  const ServiceCheckpoint want = checkpoint_after(xm, small_config(), 2);

  Diagnostics diags;
  ASSERT_TRUE(save_checkpoint(want, path.string(), &diags));
  EXPECT_FALSE(diags.has_errors());
  // The atomic-rename protocol must not leave its temp file behind.
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));

  const std::optional<ServiceCheckpoint> got =
      load_checkpoint(path.string(), &diags);
  ASSERT_TRUE(got.has_value());
  expect_same_checkpoint(want, *got);

  // Overwriting with newer state replaces the file completely.
  const ServiceCheckpoint newer = checkpoint_after(xm, small_config(), 4);
  ASSERT_TRUE(save_checkpoint(newer, path.string(), &diags));
  const std::optional<ServiceCheckpoint> reloaded =
      load_checkpoint(path.string(), &diags);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(newer.snapshot.round, reloaded->snapshot.round);
}

TEST(Checkpoint, MissingFileIsACleanFirstRun) {
  Diagnostics diags;
  const std::optional<ServiceCheckpoint> got = load_checkpoint(
      (fs::path(::testing::TempDir()) / "xh_no_such.ckpt").string(), &diags);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(diags.empty()) << "a missing checkpoint is not an error";
}

TEST(Checkpoint, SaveIntoMissingDirectoryFailsWithDiagnostic) {
  const fs::path path =
      fs::path(::testing::TempDir()) / "xh_ckpt_void" / "nested" / "job.ckpt";
  const XMatrix xm = small_workload(14);
  const ServiceCheckpoint ckpt = checkpoint_after(xm, small_config(), 1);
  Diagnostics diags;
  EXPECT_FALSE(save_checkpoint(ckpt, path.string(), &diags));
  EXPECT_GT(diags.count(DiagKind::kStreamFailure), 0u);
}

TEST(Checkpoint, ChecksumCatchesTruncationAtEveryLine) {
  const XMatrix xm = small_workload(15);
  const std::string text =
      checkpoint_to_string(checkpoint_after(xm, small_config(), 3));

  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 5u);

  std::string prefix;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    prefix += lines[i] + "\n";
    SCOPED_TRACE("kept " + std::to_string(i + 1) + " lines");
    Diagnostics diags;
    EXPECT_FALSE(checkpoint_from_string(prefix, &diags).has_value());
    EXPECT_GT(diags.count(DiagKind::kCheckpointCorrupt), 0u);
  }
}

TEST(Checkpoint, ChecksumCatchesSeededCorruptorDamage) {
  const XMatrix xm = small_workload(16);
  const std::string text =
      checkpoint_to_string(checkpoint_after(xm, small_config(), 3));
  Corruptor chaos(0xc0ffee);
  const std::vector<std::string> attacks = {
      chaos.truncate_text(text, 0.8),
      chaos.truncate_text(text, 0.3),
      chaos.garble_text(text, 1),
      chaos.garble_text(text, 25),
      chaos.duplicate_line(text),
      text + "trailing junk\n",
  };
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    SCOPED_TRACE("attack " + std::to_string(i));
    ASSERT_NE(attacks[i], text);
    Diagnostics diags;
    EXPECT_FALSE(checkpoint_from_string(attacks[i], &diags).has_value());
    EXPECT_GT(diags.count(DiagKind::kCheckpointCorrupt), 0u);
  }
}

TEST(Checkpoint, StructuralDefectsAreRejectedPastTheChecksum) {
  const XMatrix xm = small_workload(17);
  const std::string body =
      body_of(checkpoint_after(xm, small_config(), 2));

  // Each tampered body is re-signed, so only the structural validation can
  // reject it — the plausibility bounds, not the checksum, are on trial.
  const std::vector<std::string> tampered = {
      sign(swap_line(body, "xh-ckpt", "xh-ckpt v2")),
      sign(swap_line(body, "parts", "parts 0")),
      sign(swap_line(body, "parts", "parts 500000")),
      sign(swap_line(body, "history", "history 0")),
      sign(swap_line(body, "state", "state 1 maybe")),
      sign(swap_line(body, "rng", "rng dead beef")),
      sign(swap_line(body, "store", "store")),
      sign(swap_line(body, "isa", "isa")),
      sign(swap_line(body, "isa", "isa scalar scalar")),
      sign(body + "junk line\n"),
  };
  for (std::size_t i = 0; i < tampered.size(); ++i) {
    SCOPED_TRACE("tamper " + std::to_string(i));
    Diagnostics diags;
    EXPECT_FALSE(checkpoint_from_string(tampered[i], &diags).has_value());
    EXPECT_GT(diags.count(DiagKind::kCheckpointCorrupt), 0u);
  }
  // Control: the untampered re-signed body still parses.
  EXPECT_TRUE(checkpoint_from_string(sign(body)).has_value());
}

TEST(Checkpoint, MatchesOnlyTheExactRunIdentity) {
  const XMatrix xm = small_workload(18);
  const PartitionerConfig cfg = small_config();
  const ServiceCheckpoint ckpt = checkpoint_after(xm, cfg, 2);

  std::string why;
  EXPECT_TRUE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                 xm.total_x(), cfg, "csr", "scalar", &why))
      << why;

  ScanGeometry other_geometry{7, 24};
  EXPECT_FALSE(checkpoint_matches(ckpt, other_geometry, xm.num_patterns(),
                                  xm.total_x(), cfg, "csr", "scalar", &why));
  EXPECT_EQ(why, "scan geometry differs");

  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(),
                                  xm.num_patterns() + 1, xm.total_x(),
                                  cfg, "csr", "scalar", &why));
  EXPECT_EQ(why, "pattern count differs");

  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                  xm.total_x() + 1, cfg, "csr", "scalar",
                                  &why));
  EXPECT_EQ(why, "total X population differs");

  PartitionerConfig other_misr = cfg;
  other_misr.misr.q += 1;
  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                  xm.total_x(), other_misr, "csr", "scalar",
                                  &why));
  EXPECT_EQ(why, "MISR configuration differs");

  PartitionerConfig other_seed = cfg;
  other_seed.seed += 1;
  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                  xm.total_x(), other_seed, "csr", "scalar",
                                  &why));
  EXPECT_EQ(why, "partitioner configuration differs");

  // A valid-but-different backend parses fine yet must refuse to graft:
  // resuming csr state through an mmap store is an operator surprise.
  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                  xm.total_x(), cfg, "mmap", "scalar", &why));
  EXPECT_EQ(why, "storage backend differs");

  // Older builds also wrote "store tebm", a backend that no longer exists.
  // Such a file still parses, and matches neither current placement, so
  // the service reruns it fresh.
  ServiceCheckpoint tebm = ckpt;
  tebm.backend = "tebm";
  const std::optional<ServiceCheckpoint> old_file =
      checkpoint_from_string(checkpoint_to_string(tebm));
  ASSERT_TRUE(old_file.has_value());
  EXPECT_EQ(old_file->backend, "tebm");
  for (const char* backend : {"csr", "mmap"}) {
    EXPECT_FALSE(checkpoint_matches(*old_file, xm.geometry(), xm.num_patterns(),
                                    xm.total_x(), cfg, backend, "scalar",
                                    &why));
    EXPECT_EQ(why, "storage backend differs");
  }

  // Crossing kernel ISA tiers likewise demotes to a fresh run — the tiers
  // are differentially pinned bit-identical, but an unaudited cross-tier
  // graft would hide any future divergence.
  EXPECT_FALSE(checkpoint_matches(ckpt, xm.geometry(), xm.num_patterns(),
                                  xm.total_x(), cfg, "csr", "avx2", &why));
  EXPECT_EQ(why, "kernel ISA differs");

  // A pre-kernel-layer checkpoint carries no isa field and matches any.
  ServiceCheckpoint legacy = ckpt;
  legacy.isa.clear();
  EXPECT_TRUE(checkpoint_matches(legacy, xm.geometry(), xm.num_patterns(),
                                 xm.total_x(), cfg, "csr", "avx512", &why))
      << why;
}

// The store line is load-bearing round-trip state, not a comment: a
// checkpoint recorded against mmap restores as mmap.
TEST(Checkpoint, BackendIdentitySurvivesTheTrip) {
  const XMatrix xm = small_workload(19);
  ServiceCheckpoint want = checkpoint_after(xm, small_config(), 1);
  want.backend = "mmap";
  const std::optional<ServiceCheckpoint> got =
      checkpoint_from_string(checkpoint_to_string(want));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->backend, "mmap");
}

// The isa line round-trips like the store line, and its absence is not a
// defect: checkpoints written before the kernel layer simply skip from
// "store" to "state" and parse to an empty (match-any) isa field.
TEST(Checkpoint, IsaIdentitySurvivesTheTripAndIsOptional) {
  const XMatrix xm = small_workload(20);
  ServiceCheckpoint want = checkpoint_after(xm, small_config(), 1);
  want.isa = "avx512";
  const std::optional<ServiceCheckpoint> got =
      checkpoint_from_string(checkpoint_to_string(want));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->isa, "avx512");

  ServiceCheckpoint legacy = want;
  legacy.isa.clear();
  const std::string text = checkpoint_to_string(legacy);
  EXPECT_EQ(text.find("isa "), std::string::npos);
  const std::optional<ServiceCheckpoint> reparsed =
      checkpoint_from_string(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->isa.empty());
}

}  // namespace
}  // namespace xh
