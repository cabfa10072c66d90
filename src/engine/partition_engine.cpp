#include "engine/partition_engine.hpp"

#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "misr/accounting.hpp"
#include "storage/store_factory.hpp"
#include "util/check.hpp"
#include "util/diagnostics.hpp"

namespace xh {
namespace {

/// Below this many candidate rows the fan-out bookkeeping costs more than
/// the sweep itself.
constexpr std::size_t kParallelGrain = 2048;

/// A candidate row that has an X in the partition but is not masked there,
/// with its group key: the seed partitioner's (restricted count,
/// restricted-pattern-set hash).
struct GroupRecord {
  std::uint64_t hash;
  std::uint32_t count;
  std::uint32_t row;
};

struct ChunkAccum {
  std::vector<GroupRecord> records;
  std::vector<std::uint32_t> members;
  std::size_t masked_cells = 0;
};

/// One distinct group key and how many records carry it; size 0 marks an
/// empty slot.
struct GroupSlot {
  std::uint64_t hash = 0;
  std::uint32_t count = 0;
  std::uint32_t size = 0;
};

/// The seed's rank: maskable X volume (size × count), then more cells, then
/// the higher X count. Among exact ties the smaller hash wins, which is the
/// group the seed's (count, hash)-ordered map walk keeps.
bool ranks_above(const GroupSlot& a, const GroupSlot& b) {
  const std::uint64_t score_a = std::uint64_t{a.size} * a.count;
  const std::uint64_t score_b = std::uint64_t{b.size} * b.count;
  if (score_a != score_b) return score_a > score_b;
  if (a.size != b.size) return a.size > b.size;
  if (a.count != b.count) return a.count > b.count;
  return a.hash < b.hash;
}

/// Every store row, ascending: the candidates of a full-row sweep.
std::vector<std::uint32_t> all_rows(const XMatrixStore& store) {
  XH_ASSERT(store.num_rows() < std::numeric_limits<std::uint32_t>::max(),
            "row index overflows the member representation");
  XH_ASSERT(store.num_patterns() <= std::numeric_limits<std::uint32_t>::max(),
            "pattern count overflows the group record");
  std::vector<std::uint32_t> all(store.num_rows());
  for (std::size_t r = 0; r < all.size(); ++r) {
    all[r] = static_cast<std::uint32_t>(r);
  }
  return all;
}

}  // namespace

PartitionEngine::PartitionEngine(const XMatrixStore& store,
                                 const PartitionerConfig& cfg,
                                 ThreadPool* pool, Trace* trace,
                                 const CancelToken* cancel)
    : store_(store),
      cfg_(cfg),
      pool_(pool),
      trace_(trace),
      cancel_(cancel),
      rng_(cfg.seed) {
  cfg_.misr.validate();
  XH_REQUIRE(store_.num_patterns() > 0, "X matrix has no patterns");
  parts_.push_back(
      analyze(BitVec(store_.num_patterns(), true), all_rows(store_)));
  masked_total_ = parts_.front().masked_x();
  history_.push_back(snapshot_round(0, 1, masked_total_));
}

PartitionEngine::PartitionEngine(const XMatrixStore& store,
                                 const PartitionerConfig& cfg,
                                 const EngineSnapshot& snapshot,
                                 ThreadPool* pool, Trace* trace,
                                 const CancelToken* cancel)
    : store_(store),
      cfg_(cfg),
      pool_(pool),
      trace_(trace),
      cancel_(cancel),
      rng_(cfg.seed) {
  cfg_.misr.validate();
  XH_REQUIRE(store_.num_patterns() > 0, "X matrix has no patterns");
  XH_REQUIRE(!snapshot.partitions.empty(),
             "snapshot must hold at least the root partition");
  XH_REQUIRE(!snapshot.history.empty(),
             "snapshot history must hold at least the round-0 entry");

  // The stored partitions must be a disjoint cover of every pattern:
  // spans sum to num_patterns AND their union saturates, which together
  // rule out both overlap and gaps.
  BitVec cover(store_.num_patterns());
  std::size_t span_sum = 0;
  for (const BitVec& patterns : snapshot.partitions) {
    XH_REQUIRE(patterns.size() == store_.num_patterns(),
               "snapshot partition width != store pattern count");
    span_sum += patterns.count();
    cover |= patterns;
  }
  XH_REQUIRE(span_sum == store_.num_patterns() &&
                 cover.count() == store_.num_patterns(),
             "snapshot partitions must disjointly cover all patterns");

  rng_.set_state(snapshot.rng_state);

  // Re-derive each partition's analysis with a full-row sweep; analyze()
  // skips rows with no X in the partition and merges chunks in ascending
  // order, so the Part is identical to the one built incrementally.
  const std::vector<std::uint32_t> all = all_rows(store_);
  parts_.reserve(snapshot.partitions.size());
  for (const BitVec& patterns : snapshot.partitions) {
    parts_.push_back(analyze(patterns, all));
    masked_total_ += parts_.back().masked_x();
  }
  history_ = snapshot.history;
  round_ = snapshot.round;
  done_ = snapshot.done;
  obs_count(trace_, "engine.snapshot_restores");
}

EngineSnapshot PartitionEngine::snapshot() const {
  EngineSnapshot snap;
  snap.round = round_;
  snap.done = done_;
  snap.rng_state = rng_.state();
  snap.partitions.reserve(parts_.size());
  for (const Part& p : parts_) snap.partitions.push_back(p.patterns);
  snap.history = history_;
  return snap;
}

PartitionEngine::Part PartitionEngine::analyze(
    BitVec patterns, const std::vector<std::uint32_t>& candidates) {
  Part part;
  part.span = patterns.count();
  part.patterns = std::move(patterns);
  XH_ASSERT(part.span > 0, "empty partition");

  // Sweep the candidate rows into flat (hash, count, row) group records.
  // Chunks are joined in chunk order below, so members and records stay
  // ascending by row and the outcome is independent of the pool size.
  const std::size_t chunks =
      pool_ != nullptr ? pool_->chunk_count(candidates.size(), kParallelGrain)
                       : (candidates.empty() ? 0 : 1);
  std::vector<ChunkAccum> accums(chunks);
  const PatternView view(part.patterns);
  const auto sweep = [&](std::size_t chunk, std::size_t begin,
                         std::size_t end) {
    ChunkAccum& acc = accums[chunk];
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t row = candidates[i];
      const std::size_t count = store_.count_in(row, view);
      if (count == 0) continue;
      acc.members.push_back(row);
      if (count == part.span) {
        ++acc.masked_cells;
      } else {
        acc.records.push_back({store_.hash_in(row, view),
                               static_cast<std::uint32_t>(count), row});
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_chunks(candidates.size(), kParallelGrain, sweep);
    obs_count(trace_, "engine.pool_tasks", chunks);
  } else if (chunks == 1) {
    sweep(0, 0, candidates.size());
  }
  // Counted here, after the fan-out joins: Trace is not synchronized, so
  // instrumentation lives at the deterministic merge point, never inside
  // the pool lambdas.
  obs_count(trace_, "engine.cell_analyses");
  obs_count(trace_, "engine.rows_examined", candidates.size());

  std::size_t member_total = 0;
  std::size_t record_total = 0;
  for (const ChunkAccum& acc : accums) {
    member_total += acc.members.size();
    record_total += acc.records.size();
  }
  part.members.reserve(member_total);
  std::vector<GroupRecord> records;
  records.reserve(record_total);
  for (const ChunkAccum& acc : accums) {
    part.masked_cells += acc.masked_cells;
    part.members.insert(part.members.end(), acc.members.begin(),
                        acc.members.end());
    records.insert(records.end(), acc.records.begin(), acc.records.end());
  }
  // Every candidate was counted and every record hashed.
  store_.note_probes(candidates.size(), records.size(), 0);
  if (records.empty()) return part;

  // Size every group in one open-addressing table, at most half full and
  // indexed by the top bits of the Fibonacci-scrambled hash. A slot's rank
  // only rises as it grows, so the leader can change only to the slot just
  // incremented, and the winner is known when the last record is counted.
  const std::size_t capacity = std::bit_ceil(2 * records.size());
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<GroupSlot> table(capacity);
  const GroupSlot* win = nullptr;
  for (const GroupRecord& rec : records) {
    std::size_t i =
        static_cast<std::size_t>((rec.hash * 0x9e3779b97f4a7c15ULL) >> shift);
    while (table[i].size != 0 &&
           (table[i].hash != rec.hash || table[i].count != rec.count)) {
      i = (i + 1) & (capacity - 1);
    }
    GroupSlot& slot = table[i];
    slot.hash = rec.hash;
    slot.count = rec.count;
    ++slot.size;
    if (win == nullptr || ranks_above(slot, *win)) win = &slot;
  }

  part.group_size = win->size;
  part.group_xcount = win->count;
  part.group_cells.reserve(win->size);
  for (const GroupRecord& rec : records) {
    if (rec.hash == win->hash && rec.count == win->count) {
      part.group_cells.push_back(store_.cell_id(rec.row));
    }
  }
  return part;
}

PartitionRound PartitionEngine::snapshot_round(std::size_t round,
                                               std::size_t num_parts,
                                               std::uint64_t masked) const {
  PartitionRound r;
  r.round = round;
  r.num_partitions = num_parts;
  r.masked_x = masked;
  r.leaked_x = store_.total_x() - masked;
  r.total_bits =
      hybrid_bits(store_.geometry(), num_parts, cfg_.misr, r.leaked_x);
  return r;
}

PartitionEngine::StepOutcome PartitionEngine::step() {
  if (done_ || round_ >= cfg_.max_rounds) {
    done_ = true;
    return StepOutcome::kExhausted;
  }
  // Cooperative stop, polled only here — a round boundary — so every
  // observable state is a valid accepted-round prefix. done_ stays false:
  // the search is paused, not finished, and a snapshot can resume it.
  if (cancel_ != nullptr && cancel_->stop_requested()) {
    interrupted_ = true;
    obs_count(trace_, "engine.rounds_cancelled");
    return StepOutcome::kCancelled;
  }

  // Candidate = partition with the strongest same-count group.
  std::size_t best = parts_.size();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].splittable(cfg_.allow_singleton_groups)) continue;
    if (best == parts_.size() ||
        parts_[i].group_score() > parts_[best].group_score()) {
      best = i;
    }
  }
  if (best == parts_.size()) {
    done_ = true;
    return StepOutcome::kExhausted;  // nothing left to split
  }

  const Part& victim = parts_[best];
  const std::size_t pick =
      cfg_.cell_choice == SplitCellChoice::kRandom
          ? static_cast<std::size_t>(rng_.below(victim.group_cells.size()))
          : 0;  // group_cells is ascending
  const std::size_t split_cell = victim.group_cells[pick];

  // Locate the split cell's store row (group_cells holds cell ids; rows are
  // ascending by cell id, so a binary search keeps this O(log n)).
  std::size_t row = 0;
  {
    std::size_t lo = 0;
    std::size_t hi = store_.num_rows();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (store_.cell_id(mid) < split_cell) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    XH_ASSERT(lo < store_.num_rows() && store_.cell_id(lo) == split_cell,
              "split cell missing from the store");
    row = lo;
  }

  BitVec with_x(store_.num_patterns());
  store_.intersect_into(row, victim.patterns, &with_x);
  store_.note_probes(0, 0, 1);
  BitVec without_x = victim.patterns;
  without_x.and_not(with_x);
  XH_ASSERT(with_x.any() && without_x.any(),
            "split cell must divide the partition");

  obs_count(trace_, "engine.probes_attempted");
  obs_record(trace_, "engine.victim_rows", victim.members.size());

  Part a = analyze(std::move(with_x), victim.members);
  Part b = analyze(std::move(without_x), victim.members);

  const std::uint64_t probe_masked =
      masked_total_ - victim.masked_x() + a.masked_x() + b.masked_x();
  PartitionRound probe =
      snapshot_round(round_ + 1, parts_.size() + 1, probe_masked);
  probe.split_cell = split_cell;

  if (cfg_.stop_on_cost_increase &&
      probe.total_bits >= history_.back().total_bits) {
    probe.accepted = false;
    history_.push_back(probe);
    done_ = true;
    // Rejection touches no partition state: the probe was costed from
    // running totals, so this is the zero-copy path.
    obs_count(trace_, "engine.probes_rejected_zero_copy");
    return StepOutcome::kRejected;
  }

  // Accept: splice the victim out, append the two halves (same ordering as
  // the seed's erase + push_back, so future best-partition scans agree).
  parts_.erase(parts_.begin() + static_cast<std::ptrdiff_t>(best));
  parts_.push_back(std::move(a));
  parts_.push_back(std::move(b));
  masked_total_ = probe_masked;
  history_.push_back(probe);
  ++round_;
  obs_count(trace_, "engine.probes_accepted");
  return StepOutcome::kSplit;
}

PartitionResult PartitionEngine::run() {
  while (step() == StepOutcome::kSplit) {
  }
  return materialize();
}

PartitionResult PartitionEngine::materialize() const {
  PartitionResult result;
  result.history = history_;
  result.partitions.reserve(parts_.size());
  result.masks.reserve(parts_.size());
  std::uint64_t masked = 0;
  std::uint64_t probes = 0;
  for (const Part& p : parts_) {
    BitVec mask(store_.num_cells());
    const PatternView view(p.patterns);
    for (const std::uint32_t row : p.members) {
      // Masked ⇔ X under every pattern of the partition.
      if (store_.count_in(row, view) == p.span) {
        mask.set(store_.cell_id(row));
      }
    }
    probes += p.members.size();
    XH_ASSERT(mask.count() == p.masked_cells, "mask/analysis disagreement");
    masked += p.masked_x();
    result.partitions.push_back(p.patterns);
    result.masks.push_back(std::move(mask));
  }
  store_.note_probes(probes, 0, 0);
  result.masked_x = masked;
  result.leaked_x = store_.total_x() - masked;
  result.masking_bits =
      static_cast<double>(store_.geometry().num_cells()) *
      static_cast<double>(result.partitions.size());
  result.canceling_bits = x_canceling_only_bits(cfg_.misr, result.leaked_x);
  result.total_bits = result.masking_bits + result.canceling_bits;
  result.interrupted = interrupted_;
  return result;
}

PartitionResult run_partitioning(const XMatrix& xm, PipelineContext& ctx) {
  ctx.partitioner.misr.validate();
  XH_REQUIRE(xm.num_patterns() > 0, "X matrix has no patterns");
  const ScopedSpan span(ctx.trace(), "partition");
  std::unique_ptr<XMatrixStore> store;
  {
    const ScopedSpan store_span(ctx.trace(), "store");
    store = make_store(xm);
  }
  PartitionResult result;
  {
    const ScopedSpan engine_span(ctx.trace(), "engine");
    PartitionEngine engine(*store, ctx);
    result = engine.run();
  }
  export_store_telemetry(*store, ctx.trace());
  if (result.interrupted) {
    // Deadline/cancel degradation: report it, don't fail — the prefix is a
    // valid partition. The gauge is only emitted on the degraded path so
    // clean runs keep their telemetry byte-identical to before.
    obs_gauge(ctx.trace(), "hybrid.degraded", 1.0);
    diag_report(ctx.collector(), DiagSeverity::kWarning,
                DiagKind::kDeadlineExceeded, "partitioning",
                "stopped at round boundary " +
                    std::to_string(result.history.back().round) +
                    " by the cancellation token; best-so-far partition kept");
  }
  return result;
}

}  // namespace xh
