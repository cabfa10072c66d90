// XMatrixStore contract (DESIGN.md §12): both placements — csr (heap) and
// mmap (mapped spill file) — must present the frozen X matrix identically:
// same rows in ascending cell-id order, same counts, and
// count_in/hash_in/intersect_into agreeing bit for bit with the BitVec
// formulation the seed partitioner uses, for subsets spanning every word
// and for subsets whose words are zero outside a window (the PatternView
// range the probes read). The placement-specific sections
// pin CSR's raw word access and the mmap placement's file protocol, page
// accounting and cleanup on failure.
#include "storage/x_matrix_store.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <ios>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.hpp"
#include "response/x_matrix.hpp"
#include "storage/store_factory.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

constexpr XmBackend kAllBackends[] = {XmBackend::kCsr, XmBackend::kMmap};

XMatrix random_matrix(std::uint64_t seed, std::size_t chains,
                      std::size_t length, std::size_t patterns,
                      double density) {
  WorkloadProfile profile;
  profile.name = "store-test";
  profile.geometry = {chains, length};
  profile.num_patterns = patterns;
  profile.x_density = density;
  profile.clustered_fraction = 0.5;
  // Clusters span about an eighth of the patterns. Narrower ones take
  // every cell of these small geometries before half the X budget is
  // placed, and the generator refuses a background with no room left.
  profile.cluster_cells_mean = 4;
  profile.cluster_patterns_mean = std::max<std::size_t>(4, patterns / 8);
  profile.seed = seed;
  return generate_workload(profile);
}

/// @p xm, with @p cell X-capturing under every pattern.
XMatrix with_full_row(const XMatrix& xm, std::size_t cell) {
  XMatrix::Builder b(xm.geometry(), xm.num_patterns());
  for (const std::size_t c : xm.x_cells()) b.append_row(c, xm.patterns_of(c));
  b.add_row(cell, BitVec(xm.num_patterns(), true));
  return b.freeze();
}

/// The seed partitioner's set_hash, restricted to (row & subset): the group
/// key hash_in must reproduce exactly — including the multiply step on
/// all-zero words.
std::uint64_t reference_hash(const BitVec& pats, const BitVec& subset) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t w = 0; w < subset.word_count(); ++w) {
    h ^= pats.word(w) & subset.word(w);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A subset whose set bits lie only in the pattern words @p words, each of
/// them nonzero, so a PatternView of it spans exactly the first to the
/// last of them.
BitVec window_subset(std::size_t patterns,
                     const std::vector<std::size_t>& words, Rng& rng) {
  BitVec subset(patterns);
  for (const std::size_t w : words) {
    const std::size_t first = w * 64;
    const std::size_t last = std::min(patterns, first + 64);
    subset.set(first + static_cast<std::size_t>(rng.below(last - first)));
    for (std::size_t p = first; p < last; ++p) {
      if (rng.chance(0.5)) subset.set(p);
    }
  }
  return subset;
}

/// Checks every row's probes under @p subset against the BitVec
/// formulation.
void expect_probes_match(const XMatrix& xm, const XMatrixStore& store,
                         const BitVec& subset) {
  const PatternView view(subset);
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    const BitVec& pats = xm.patterns_of(store.cell_id(r));
    EXPECT_EQ(store.count_in(r, view), kernels::and_count(pats, subset));
    EXPECT_EQ(store.hash_in(r, view), reference_hash(pats, subset));
    BitVec expect = pats & subset;
    BitVec got;
    store.intersect_into(r, subset, &got);
    EXPECT_TRUE(got == expect);
  }
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Points TMPDIR, where the mmap placement spills, at @p dir for a scope.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const fs::path& dir) {
    if (const char* old = std::getenv("TMPDIR")) saved_ = old;
    ::setenv("TMPDIR", dir.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (saved_) {
      ::setenv("TMPDIR", saved_->c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }
  ScopedTmpdir(const ScopedTmpdir&) = delete;
  ScopedTmpdir& operator=(const ScopedTmpdir&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(StoreContract, SnapshotMatchesSourceMatrixOnEveryBackend) {
  const XMatrix xm = random_matrix(11, 6, 9, 70, 0.05);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());

    EXPECT_EQ(store->geometry(), xm.geometry());
    EXPECT_EQ(store->num_patterns(), xm.num_patterns());
    EXPECT_EQ(store->num_cells(), xm.num_cells());
    EXPECT_EQ(store->total_x(), xm.total_x());
    EXPECT_EQ(store->num_rows(), xm.x_cells().size());

    const auto cells = xm.x_cells();
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < store->num_rows(); ++r) {
      EXPECT_EQ(store->cell_id(r), cells[r]);
      EXPECT_EQ(store->x_count(r), xm.patterns_of(cells[r]).count());
      total += store->x_count(r);
    }
    EXPECT_EQ(total, store->total_x());
  }
}

TEST(StoreContract, ProbesAgreeWithBitVecFormulationOnEveryBackend) {
  // Three pattern words, and six; both end in a partial tail word.
  for (const std::size_t patterns : {130u, 330u}) {
    // One cell X-captures under every pattern: all-ones words and a tail.
    const XMatrix xm =
        with_full_row(random_matrix(23, 4, 8, patterns, 0.08), 17);
    const std::size_t width = (patterns + 63) / 64;
    const std::size_t mid = width / 2;
    // The words each window-shaped subset sets: none, only the first, a
    // middle or the tail word, a block with zero words on both sides, and
    // two blocks separated by a zero word.
    std::vector<std::vector<std::size_t>> windows = {{}, {0}, {mid},
                                                     {width - 1}};
    std::vector<std::size_t> inner;
    std::vector<std::size_t> split;
    for (std::size_t w = 0; w < width; ++w) {
      if (w != 0 && w != width - 1) inner.push_back(w);
      if (w != mid) split.push_back(w);
    }
    windows.push_back(inner);
    windows.push_back(split);
    if (width >= 5) windows.push_back({1, 3});

    for (const XmBackend backend : kAllBackends) {
      const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
      SCOPED_TRACE(std::string(store->backend_name()) + " " +
                   std::to_string(patterns) + " patterns");
      Rng rng(99);
      for (int iter = 0; iter < 20; ++iter) {
        BitVec subset(xm.num_patterns());
        for (std::size_t p = 0; p < subset.size(); ++p) {
          if (rng.chance(0.5)) subset.set(p);
        }
        expect_probes_match(xm, *store, subset);
      }
      expect_probes_match(xm, *store, BitVec(patterns, true));
      for (const std::vector<std::size_t>& words : windows) {
        const BitVec subset = window_subset(patterns, words, rng);
        const PatternView view(subset);
        SCOPED_TRACE("window of " + std::to_string(words.size()) +
                     " words from " +
                     std::to_string(words.empty() ? 0 : words.front()));
        if (words.empty()) {
          EXPECT_EQ(view.lo, view.hi);
        } else {
          EXPECT_EQ(view.lo, words.front());
          EXPECT_EQ(view.hi, words.back() + 1);
        }
        expect_probes_match(xm, *store, subset);
      }
    }
  }
}

TEST(StoreContract, SnapshotIsIndependentOfSourceMutation) {
  // A matrix is frozen, so its builder is the only source left to mutate:
  // what it records after freeze() goes into the next matrix, never into
  // the frozen one or a store over it.
  for (const XmBackend backend : kAllBackends) {
    const XMatrix source = random_matrix(5, 3, 5, 40, 0.1);
    XMatrix::Builder builder(source.geometry(), source.num_patterns());
    for (const std::size_t cell : source.x_cells()) {
      builder.add_row(cell, source.patterns_of(cell));
    }
    const XMatrix xm = builder.freeze();
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    const std::uint64_t before = store->total_x();
    builder.add_x(0, 0);
    builder.add_x(1, 1);
    EXPECT_EQ(builder.freeze().total_x(), 2u);
    EXPECT_EQ(store->total_x(), before);
    EXPECT_TRUE(xm == source);
    for (std::size_t r = 0; r < store->num_rows(); ++r) {
      EXPECT_EQ(store->cell_id(r), source.x_cells()[r]);
      EXPECT_TRUE(std::equal(store->row_words(r),
                             store->row_words(r) + store->words_per_row(),
                             source.row_words(r)));
    }
  }
}

TEST(StoreContract, EmptyMatrixHasNoRows) {
  const XMatrix xm({2, 4}, 10);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    EXPECT_EQ(store->num_rows(), 0u);
    EXPECT_EQ(store->total_x(), 0u);
    // Probes on an empty subset universe still behave.
    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.rows_touched, 0u);
  }
}

TEST(StoreContract, ProbeAccountingIsExactAndMonotonic) {
  const XMatrix xm = random_matrix(31, 4, 8, 96, 0.06);
  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    SCOPED_TRACE(store->backend_name());
    ASSERT_GT(store->num_rows(), 0u);

    BitVec subset(xm.num_patterns());
    subset.set(0);
    const PatternView view(subset);
    (void)store->count_in(0, view);
    (void)store->count_in(0, view);
    (void)store->hash_in(0, view);
    BitVec out;
    store->intersect_into(0, subset, &out);

    const StoreStats stats = store->stats();
    EXPECT_EQ(stats.probe_count_in, 2u);
    EXPECT_EQ(stats.probe_hash_in, 1u);
    EXPECT_EQ(stats.probe_intersect, 1u);
    EXPECT_EQ(stats.rows_touched, 4u);
    EXPECT_GT(stats.resident_bytes, 0u);
  }
}

// --- CSR specifics -------------------------------------------------------

TEST(CsrStore, RowWordsReproduceTheSourceBitForBit) {
  const XMatrix xm = random_matrix(41, 6, 9, 70, 0.05);
  const XMatrixStore store(xm, XmBackend::kCsr);
  const auto cells = xm.x_cells();
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    const BitVec& pats = xm.patterns_of(cells[r]);
    for (std::size_t w = 0; w < store.words_per_row(); ++w) {
      EXPECT_EQ(store.row_words(r)[w], pats.word(w));
    }
  }
  // Unpadded: cell id, X count and the row words, nothing else.
  EXPECT_EQ(store.stats().resident_bytes,
            estimate_csr_bytes(store.num_rows(), store.num_patterns()));
}

TEST(CsrStore, BorrowsTheMatrixBlockAndOutlivesItsMove) {
  std::vector<XMatrix> matrices;
  matrices.push_back(random_matrix(43, 6, 9, 70, 0.05));
  const XMatrixStore store(matrices.front(), XmBackend::kCsr);
  ASSERT_GT(store.num_rows(), 0u);
  EXPECT_EQ(store.row_words(0), matrices.front().row_words(0))
      << "a csr store reads the matrix's own rows";
  const XMatrix copy = matrices.front();
  // Growing the vector moves the matrix; its block stays where it was.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    matrices.push_back(random_matrix(seed, 2, 3, 10, 0.2));
  }
  EXPECT_EQ(store.row_words(0), matrices.front().row_words(0));
  const XMatrix moved = std::move(matrices.front());
  EXPECT_EQ(store.row_words(0), moved.row_words(0));
  const BitVec all(copy.num_patterns(), true);
  const PatternView view(all);
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(store.cell_id(r), copy.x_cells()[r]);
    EXPECT_EQ(store.x_count(r), copy.row_counts()[r]);
    EXPECT_EQ(store.count_in(r, view), copy.row_counts()[r]);
  }
}

// --- mmap specifics ------------------------------------------------------

TEST(MmapStore, BuildsThePagedFileProtocol) {
  const XMatrix xm = random_matrix(47, 6, 9, 200, 0.05);
  const ScopedTmpdir tmpdir(fresh_dir("xh_store_layout"));
  const XMatrixStore store(xm, XmBackend::kMmap);
  EXPECT_STREQ(store.backend_name(), "mmap");

  // Header page, then the cells, counts and words sections, each starting
  // on a page boundary; the file ends on one too.
  const auto pages = [](std::uint64_t bytes) {
    return (bytes + XMatrixStore::kPageSize - 1) / XMatrixStore::kPageSize;
  };
  const std::uint64_t column = store.num_rows() * sizeof(std::uint64_t);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.mapped_bytes,
            (1 + 2 * pages(column) + pages(column * store.words_per_row())) *
                XMatrixStore::kPageSize);
  // The payload lives in page cache; the object's own footprint is tiny.
  EXPECT_LT(stats.resident_bytes, XMatrixStore::kPageSize);
}

TEST(MmapStore, UnlinksTheBackingFileByDefault) {
  const XMatrix xm = random_matrix(53, 4, 8, 96, 0.05);
  const fs::path spill = fresh_dir("xh_store_unlink");
  const ScopedTmpdir tmpdir(spill);
  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kMmap);
  EXPECT_TRUE(fs::is_empty(spill)) << "the spill file must have no name";
  // The mapping keeps the data alive regardless.
  ASSERT_GT(store->num_rows(), 0u);
  EXPECT_EQ(store->cell_id(0), xm.x_cells().front());
}

TEST(MmapStore, CountsPagesTouchedByRowProbes) {
  const XMatrix xm = random_matrix(59, 4, 8, 96, 0.08);
  const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kMmap);
  ASSERT_GT(store->num_rows(), 0u);

  EXPECT_EQ(store->stats().pages_touched, 0u);
  BitVec subset(xm.num_patterns());
  subset.set(1);
  const PatternView view(subset);
  (void)store->count_in(0, view);
  const std::uint64_t once = store->stats().pages_touched;
  EXPECT_GE(once, 1u);
  (void)store->count_in(0, view);
  // Deterministic: the same probe touches the same pages again.
  EXPECT_EQ(store->stats().pages_touched, 2 * once);

  // The heap placement has no pages to count.
  const std::unique_ptr<XMatrixStore> csr = make_store(xm, XmBackend::kCsr);
  (void)csr->count_in(0, view);
  EXPECT_EQ(csr->stats().pages_touched, 0u);
}

TEST(MmapStore, RefusalToWriteThrowsIosFailure) {
  const XMatrix xm = random_matrix(61, 4, 8, 200, 0.1);
  {
    // No temp directory to spill into.
    const ScopedTmpdir tmpdir(fs::path(::testing::TempDir()) /
                              "xh_no_such_dir" / "deep");
    EXPECT_THROW(XMatrixStore(xm, XmBackend::kMmap), std::ios_base::failure);
  }

  // A build that fails mid-write: the file-size limit admits the header
  // and cells pages, then refuses the counts section. The spill file must
  // not outlive the failure.
  const fs::path spill = fresh_dir("xh_store_short_write");
  const ScopedTmpdir tmpdir(spill);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 2 * XMatrixStore::kPageSize;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
  bool threw = false;
  try {
    const XMatrixStore store(xm, XmBackend::kMmap);
  } catch (const std::ios_base::failure&) {
    threw = true;
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_TRUE(threw) << "a short write must throw std::ios_base::failure";
  EXPECT_TRUE(fs::is_empty(spill));
}

// --- factory -------------------------------------------------------------

TEST(StoreFactory, ParsesCanonicalSpellingsOnly) {
  XmBackend backend = XmBackend::kMmap;
  EXPECT_TRUE(parse_xm_backend("auto", &backend));
  EXPECT_EQ(backend, XmBackend::kAuto);
  EXPECT_TRUE(parse_xm_backend("csr", &backend));
  EXPECT_EQ(backend, XmBackend::kCsr);
  EXPECT_TRUE(parse_xm_backend("mmap", &backend));
  EXPECT_EQ(backend, XmBackend::kMmap);

  backend = XmBackend::kCsr;
  EXPECT_FALSE(parse_xm_backend("CSR", &backend));
  EXPECT_FALSE(parse_xm_backend("", &backend));
  EXPECT_FALSE(parse_xm_backend("mmapp", &backend));
  EXPECT_FALSE(parse_xm_backend("tebm", &backend));
  EXPECT_EQ(backend, XmBackend::kCsr) << "failed parse must not write";

  for (const XmBackend b :
       {XmBackend::kAuto, XmBackend::kCsr, XmBackend::kMmap}) {
    XmBackend round = XmBackend::kAuto;
    EXPECT_TRUE(parse_xm_backend(xm_backend_name(b), &round));
    EXPECT_EQ(round, b);
  }
}

TEST(StoreFactory, AutoSpillsToMmapPastTheThreshold) {
  EXPECT_EQ(resolve_xm_backend(XmBackend::kAuto, 0), XmBackend::kCsr);
  EXPECT_EQ(resolve_xm_backend(XmBackend::kAuto, kAutoMmapThresholdBytes),
            XmBackend::kCsr);
  EXPECT_EQ(resolve_xm_backend(XmBackend::kAuto, kAutoMmapThresholdBytes + 1),
            XmBackend::kMmap);
  // Non-auto requests pass through untouched.
  EXPECT_EQ(resolve_xm_backend(XmBackend::kCsr, kAutoMmapThresholdBytes + 1),
            XmBackend::kCsr);
  EXPECT_EQ(resolve_xm_backend(XmBackend::kMmap, 0), XmBackend::kMmap);

  const XMatrix xm = random_matrix(67, 4, 8, 96, 0.05);
  const std::unique_ptr<XMatrixStore> resident = make_store(xm);
  EXPECT_STREQ(resident->backend_name(), "csr");
}

TEST(StoreFactory, EstimateScalesWithRowsAndPatternWords) {
  EXPECT_EQ(estimate_csr_bytes(0, 64), 0u);
  // 64 patterns fit one word: cell id + X count + one word per row.
  EXPECT_EQ(estimate_csr_bytes(10, 64), 10u * 3 * sizeof(std::uint64_t));
  EXPECT_EQ(estimate_csr_bytes(10, 65), 10u * 4 * sizeof(std::uint64_t));
  EXPECT_GT(estimate_csr_bytes(20, 64), estimate_csr_bytes(10, 64));
  EXPECT_GT(estimate_csr_bytes(10, 6400), estimate_csr_bytes(10, 64));
}

}  // namespace
}  // namespace xh
