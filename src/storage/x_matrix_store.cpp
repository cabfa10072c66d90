#include "storage/x_matrix_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <ios>
#include <string>
#include <system_error>

#include "obs/trace.hpp"
#include "storage/store_factory.hpp"
#include "util/check.hpp"

namespace xh {
namespace {

constexpr std::uint64_t kMagic = 0x31762d6d6d782d68ULL;  // "h-xmm-v1"

/// Fixed-width header at offset 0 of the spill file.
struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint64_t num_chains = 0;
  std::uint64_t chain_length = 0;
  std::uint64_t num_patterns = 0;
  std::uint64_t total_x = 0;
  std::uint64_t num_rows = 0;
  std::uint64_t words_per_row = 0;
  std::uint64_t cells_off = 0;
  std::uint64_t counts_off = 0;
  std::uint64_t words_off = 0;
  std::uint64_t file_bytes = 0;
};

std::uint64_t page_align(std::uint64_t offset) {
  return (offset + XMatrixStore::kPageSize - 1) / XMatrixStore::kPageSize *
         XMatrixStore::kPageSize;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::ios_base::failure("XMatrixStore: " + what);
}

/// A spill-file name unique without wall clock or randomness (both banned
/// in src/ by XH-DET-001): the pid tells processes apart, a process-wide
/// ticket tells stores apart within one.
std::string next_spill_path() {
  static std::atomic<std::uint64_t> ticket{0};
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) fail("no usable temp directory: " + ec.message());
  const std::string name = "xh_xm_" + std::to_string(::getpid()) + "_" +
                           std::to_string(ticket++) + ".xmm";
  return (dir / name).string();
}

/// Closes a descriptor on every exit path out of the spill build.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

void write_at(int fd, const void* data, std::size_t bytes,
              std::uint64_t offset, const std::string& path) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("short write while building " + path);
    p += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

}  // namespace

PatternView::PatternView(const BitVec& patterns)
    : words(patterns.word_data()), hi(patterns.word_count()) {
  const std::size_t width = hi;
  while (hi > 0 && words[hi - 1] == 0) --hi;
  while (lo < hi && words[lo] == 0) ++lo;
  for (std::size_t w = 0; w < lo; ++w) hash_seed *= kFnvPrime;
  for (std::size_t w = hi; w < width; ++w) hash_tail *= kFnvPrime;
}

void XMatrixStore::Unmap::operator()(void* base) const {
  ::munmap(base, bytes);
}

XMatrixStore::XMatrixStore(const XMatrix& xm, XmBackend backend)
    : geometry_(xm.geometry()),
      num_patterns_(xm.num_patterns()),
      words_per_row_((num_patterns_ + 63) / 64),
      total_x_(xm.total_x()) {
  const std::vector<std::size_t> cells = xm.x_cells();
  num_rows_ = cells.size();
  std::vector<std::uint64_t> rows(num_rows_ * (2 + words_per_row_));
  std::uint64_t* words = rows.data() + 2 * num_rows_;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    const BitVec& pats = xm.patterns_of(cells[r]);
    XH_ASSERT(pats.word_count() == words_per_row_,
              "XMatrix row width disagrees with pattern count");
    rows[r] = cells[r];
    rows[num_rows_ + r] = pats.count();
    std::copy_n(pats.word_data(), words_per_row_, words + r * words_per_row_);
  }
  const XmBackend placement = resolve_xm_backend(
      backend, estimate_csr_bytes(num_rows_, num_patterns_));
  if (placement == XmBackend::kMmap) {
    spill_and_map(rows);
    return;
  }
  heap_ = std::move(rows);
  cells_ = heap_.data();
  counts_ = cells_ + num_rows_;
  words_ = counts_ + num_rows_;
}

void XMatrixStore::spill_and_map(const std::vector<std::uint64_t>& rows) {
  FileHeader header;
  header.num_chains = geometry_.num_chains;
  header.chain_length = geometry_.chain_length;
  header.num_patterns = num_patterns_;
  header.total_x = total_x_;
  header.num_rows = num_rows_;
  header.words_per_row = words_per_row_;
  const std::uint64_t column_bytes = num_rows_ * sizeof(std::uint64_t);
  const std::uint64_t words_bytes = column_bytes * words_per_row_;
  header.cells_off = page_align(sizeof(FileHeader));
  header.counts_off = page_align(header.cells_off + column_bytes);
  header.words_off = page_align(header.counts_off + column_bytes);
  header.file_bytes = page_align(header.words_off + words_bytes);

  // The name goes as soon as the file exists: every later exit, a throw
  // included, leaves nothing on disk once the descriptor and the mapping
  // are gone. No one reopens the file, so there is no tmp+rename step.
  const std::string path = next_spill_path();
  const int fd = ::open(path.c_str(),  // NOLINT
                        O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (fd < 0) fail("cannot create " + path);
  const FdCloser closer{fd};
  ::unlink(path.c_str());

  write_at(fd, &header, sizeof header, 0, path);
  write_at(fd, rows.data(), column_bytes, header.cells_off, path);
  write_at(fd, rows.data() + num_rows_, column_bytes, header.counts_off, path);
  write_at(fd, rows.data() + 2 * num_rows_, words_bytes, header.words_off,
           path);
  if (::ftruncate(fd, static_cast<off_t>(header.file_bytes)) != 0) {
    fail("cannot size " + path);
  }
  void* base = ::mmap(nullptr, header.file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) fail("mmap of " + path + " failed");
  map_ = std::unique_ptr<void, Unmap>(base, Unmap{header.file_bytes});

  std::uint64_t magic = 0;
  std::memcpy(&magic, base, sizeof magic);
  if (magic != kMagic) fail("bad magic in mapped " + path);
  const auto* bytes = static_cast<const std::uint8_t*>(base);
  words_off_ = header.words_off;
  cells_ = reinterpret_cast<const std::uint64_t*>(bytes + header.cells_off);
  counts_ = reinterpret_cast<const std::uint64_t*>(bytes + header.counts_off);
  words_ = reinterpret_cast<const std::uint64_t*>(bytes + header.words_off);
}

StoreStats XMatrixStore::stats() const {
  StoreStats s;
  s.probe_count_in = probe_count_in_.load(std::memory_order_relaxed);
  s.probe_hash_in = probe_hash_in_.load(std::memory_order_relaxed);
  s.probe_intersect = probe_intersect_.load(std::memory_order_relaxed);
  s.rows_touched = s.probe_count_in + s.probe_hash_in + s.probe_intersect;
  s.pages_touched = pages_touched_.load(std::memory_order_relaxed);
  // The mapped payload lives in reclaimable page cache, not process-owned
  // memory, so only the object itself counts as resident.
  if (map_) {
    s.resident_bytes = sizeof(XMatrixStore);
    s.mapped_bytes = map_.get_deleter().bytes;
  } else {
    s.resident_bytes = heap_.size() * sizeof(std::uint64_t);
  }
  return s;
}

void export_store_telemetry(const XMatrixStore& store, Trace* trace) {
  if (trace == nullptr) return;
  const StoreStats s = store.stats();
  obs_count(trace, "store.probe_count_in", s.probe_count_in);
  obs_count(trace, "store.probe_hash_in", s.probe_hash_in);
  obs_count(trace, "store.probe_intersect", s.probe_intersect);
  obs_count(trace, "store.rows_touched", s.rows_touched);
  obs_count(trace, "store.pages_touched", s.pages_touched);
  obs_gauge(trace, "store.resident_bytes",
            static_cast<double>(s.resident_bytes));
  obs_gauge(trace, "store.mapped_bytes", static_cast<double>(s.mapped_bytes));
}

}  // namespace xh
