#include "storage/x_matrix_store.hpp"

#include "obs/trace.hpp"

namespace xh {

PatternView::PatternView(const BitVec& patterns)
    : words(patterns.word_data()), hi(patterns.word_count()) {
  const std::size_t width = hi;
  while (hi > 0 && words[hi - 1] == 0) --hi;
  while (lo < hi && words[lo] == 0) ++lo;
  for (std::size_t w = 0; w < lo; ++w) hash_seed *= kFnvPrime;
  for (std::size_t w = hi; w < width; ++w) hash_tail *= kFnvPrime;
}

XMatrixStore::XMatrixStore(const XMatrix& xm)
    : geometry_(xm.geometry()),
      num_patterns_(xm.num_patterns()),
      words_per_row_(xm.words_per_row()),
      total_x_(xm.total_x()),
      num_rows_(xm.num_rows()),
      cells_(xm.x_cells().data()),
      counts_(xm.row_counts().data()),
      words_(xm.row_words(0)) {}

StoreStats XMatrixStore::stats() const {
  StoreStats s;
  s.probe_count_in = probe_count_in_.load(std::memory_order_relaxed);
  s.probe_hash_in = probe_hash_in_.load(std::memory_order_relaxed);
  s.probe_intersect = probe_intersect_.load(std::memory_order_relaxed);
  s.rows_touched = s.probe_count_in + s.probe_hash_in + s.probe_intersect;
  // Per row: the cell id, the X count and the pattern words.
  s.resident_bytes = static_cast<std::uint64_t>(num_rows_) *
                     (2 + words_per_row_) * sizeof(std::uint64_t);
  return s;
}

void export_store_telemetry(const XMatrixStore& store, Trace* trace) {
  if (trace == nullptr) return;
  const StoreStats s = store.stats();
  obs_count(trace, "store.probe_count_in", s.probe_count_in);
  obs_count(trace, "store.probe_hash_in", s.probe_hash_in);
  obs_count(trace, "store.probe_intersect", s.probe_intersect);
  obs_count(trace, "store.rows_touched", s.rows_touched);
  obs_gauge(trace, "store.resident_bytes",
            static_cast<double>(s.resident_bytes));
}

}  // namespace xh
