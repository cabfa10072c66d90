// Counter exactness: the instrumented pipeline's counters are pure
// functions of the input, so on hand-computable workloads they must equal
// the session/report facts exactly — not merely be plausible.
//
// The 4x4 MISR scenario is small enough to verify on paper: m=4, q=1, one
// pattern over 4 chains of length 4, X's captured on chain 0 at shift
// cycles 0, 1 and 2. The stop threshold is m−q = 3, so the third X triggers
// exactly one mid-stream stop; the Gaussian elimination there runs over the
// m=4 signature rows and emits the q=1 selected combination, whose X-freeness
// re-check touches one row per set selection bit.
//
// The pipeline's spans are checked here too: they are live-only as well.
#include <cstdint>

#include <gtest/gtest.h>

#include "core/hybrid.hpp"
#include "core/paper_example.hpp"
#include "engine/pipeline_context.hpp"
#include "misr/x_cancel.hpp"
#include "obs/trace.hpp"
#include "workload/industrial.hpp"

// A whole-tree XH_OBS_NOOP build compiles the pipeline's instrumentation
// out, so there is nothing to measure — the entire suite is live-only.
#ifndef XH_OBS_NOOP

namespace xh {
namespace {

std::uint64_t counter(const Trace& t, const std::string& name) {
  const auto it = t.counters().find(name);
  return it == t.counters().end() ? 0 : it->second.value;
}

TEST(CounterExactness, FourByFourCancelSession) {
  ResponseMatrix rm({4, 4}, 1);
  for (std::size_t c = 0; c < rm.num_cells(); ++c) rm.set(0, c, Lv::k0);
  rm.set(0, 0, Lv::kX);  // chain 0, shift cycle 0
  rm.set(0, 1, Lv::kX);  // chain 0, shift cycle 1
  rm.set(0, 2, Lv::kX);  // chain 0, shift cycle 2 -> hits threshold m-q = 3

  Trace t;
  const XCancelResult r = run_x_canceling(rm, {4, 1}, nullptr, &t);

  // Scenario facts, verifiable by hand.
  EXPECT_EQ(r.shift_cycles, 4u);
  EXPECT_EQ(r.total_x_seen, 3u);
  EXPECT_EQ(r.stops, 1u);
  EXPECT_TRUE(r.healthy());

  // Counters must equal those facts exactly.
  EXPECT_EQ(counter(t, "xcancel.shift_cycles"), 4u);
  EXPECT_EQ(counter(t, "xcancel.x_seen"), 3u);
  EXPECT_EQ(counter(t, "xcancel.stops"), 1u);
  // One mid-stream elimination over all m=4 signature rows, emitting the
  // q=1 combination; its re-check XORs one X-dependency row per set bit.
  EXPECT_EQ(counter(t, "xcancel.eliminations"), 1u);
  EXPECT_EQ(counter(t, "xcancel.elimination_rows"), 4u);
  EXPECT_EQ(counter(t, "xcancel.combinations_emitted"), 1u);
  EXPECT_EQ(counter(t, "xcancel.recheck_rows"), 1u);
  // No recovery path engaged.
  EXPECT_EQ(counter(t, "xcancel.combinations_dropped"), 0u);
  EXPECT_EQ(counter(t, "xcancel.starved_stops"), 0u);
  EXPECT_EQ(counter(t, "xcancel.starvation_repaid"), 0u);

  // The segment-X histogram sampled the one stop's 3 accumulated symbols.
  const auto hist = t.histograms().find("xcancel.segment_x");
  ASSERT_NE(hist, t.histograms().end());
  EXPECT_EQ(hist->second.count, 1u);
  EXPECT_EQ(hist->second.sum, 3u);
}

TEST(CounterExactness, MaskingCountersMatchPartitionResult) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  PipelineContext ctx(cfg);
  Trace t;
  ctx.set_trace(&t);
  const HybridSimulation sim =
      run_hybrid_simulation(paper_example_response(5), ctx);
  const PartitionResult& pr = sim.report.partitioning;
  ASSERT_FALSE(pr.partitions.empty());

  std::uint64_t cells_masked = 0;
  std::uint64_t x_masked = 0;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    cells_masked += pr.masks[i].count();
    x_masked += pr.masks[i].count() * pr.partitions[i].count();
  }
  EXPECT_EQ(counter(t, "masking.partitions"), pr.partitions.size());
  // L·C control bits per partition: one bit per cell in the mask vector.
  EXPECT_EQ(counter(t, "masking.control_bits"),
            pr.partitions.size() * sim.masked_response.num_cells());
  EXPECT_EQ(counter(t, "masking.cells_masked"), cells_masked);
  EXPECT_EQ(counter(t, "masking.x_masked"), x_masked);
  EXPECT_EQ(x_masked, pr.masked_x);
  // The trusting pipeline never masks observable values.
  EXPECT_EQ(counter(t, "masking.violations"), 0u);
  EXPECT_EQ(t.histograms().at("masking.masked_cells_per_partition").count,
            pr.partitions.size());
}

TEST(CounterExactness, HybridGaugesMirrorTheReport) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  PipelineContext ctx(cfg);
  Trace t;
  ctx.set_trace(&t);
  const HybridReport rep = run_hybrid_analysis(paper_example_x_matrix(), ctx);
  const auto gauge = [&](const char* name) {
    return t.gauges().at(name).value;
  };
  EXPECT_DOUBLE_EQ(gauge("hybrid.partitions"),
                   static_cast<double>(rep.partitioning.partitions.size()));
  EXPECT_DOUBLE_EQ(gauge("hybrid.masked_x"),
                   static_cast<double>(rep.partitioning.masked_x));
  EXPECT_DOUBLE_EQ(gauge("hybrid.leaked_x"),
                   static_cast<double>(rep.partitioning.leaked_x));
  EXPECT_DOUBLE_EQ(gauge("hybrid.masking_bits"),
                   rep.partitioning.masking_bits);
  EXPECT_DOUBLE_EQ(gauge("hybrid.canceling_bits"),
                   rep.partitioning.canceling_bits);
  EXPECT_DOUBLE_EQ(gauge("hybrid.total_bits"), rep.partitioning.total_bits);
}

TEST(CounterExactness, PooledAnalysisCountsAtMergePoints) {
  // Counters accumulate only at deterministic merge points, so a pooled run
  // must report the identical engine counters as a serial run (plus the
  // pool-task counter, which only the pooled branch increments).
  PartitionerConfig cfg;
  cfg.misr = {10, 2};

  Trace serial;
  {
    PipelineContext ctx(cfg);
    ctx.set_trace(&serial);
    (void)run_hybrid_analysis(paper_example_x_matrix(), ctx);
  }
  Trace pooled;
  {
    ThreadPool pool(3);
    PipelineContext ctx(cfg, &pool);
    ctx.set_trace(&pooled);
    (void)run_hybrid_analysis(paper_example_x_matrix(), ctx);
  }
  EXPECT_EQ(counter(serial, "engine.pool_tasks"), 0u);
  EXPECT_GT(counter(pooled, "engine.pool_tasks"), 0u);
  for (const char* name :
       {"engine.cell_analyses", "engine.rows_examined",
        "engine.probes_attempted", "engine.probes_accepted",
        "engine.probes_rejected_zero_copy"}) {
    EXPECT_EQ(counter(serial, name), counter(pooled, name)) << name;
  }
}

// Partitioning times the store build and the engine as two child spans, so
// a trace can tell them apart.
TEST(PipelineSpans, PartitionSplitsStoreBuildFromEngine) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  PipelineContext ctx(cfg);
  Trace t;
  ctx.set_trace(&t);
  (void)run_hybrid_analysis(paper_example_x_matrix(), ctx);
  for (const char* path : {"analysis/partition", "analysis/partition/store",
                           "analysis/partition/engine"}) {
    const auto it = t.timers().find(path);
    ASSERT_NE(it, t.timers().end()) << path;
    EXPECT_EQ(it->second.count, 1u) << path;
  }
}

TEST(PipelineSpans, TrustingSimulationSpansItsMatrixBuild) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  const ResponseMatrix response = paper_example_response(7);
  {
    PipelineContext ctx(cfg);
    Trace t;
    ctx.set_trace(&t);
    (void)run_hybrid_simulation(response, ctx);
    const auto it = t.timers().find("simulation/from_response");
    ASSERT_NE(it, t.timers().end());
    EXPECT_EQ(it->second.count, 1u);
  }
  {
    // The validating overload is handed its matrix: nothing to build.
    PipelineContext ctx(cfg);
    Trace t;
    ctx.set_trace(&t);
    const XMatrix declared = paper_example_x_matrix();
    (void)run_hybrid_simulation(response, declared, ctx);
    EXPECT_NE(t.timers().find("simulation"), t.timers().end());
    EXPECT_EQ(t.timers().find("simulation/from_response"), t.timers().end());
  }
}

TEST(PipelineSpans, GenerateWorkloadOpensOneWorkloadSpan) {
  Trace t;
  const XMatrix xm =
      generate_workload(scaled_profile(ckt_b_profile(), 0.05), &t);
  EXPECT_GT(xm.total_x(), 0u);
  const auto it = t.timers().find("workload");
  ASSERT_NE(it, t.timers().end());
  EXPECT_EQ(it->second.count, 1u);
  (void)generate_workload(scaled_profile(ckt_c_profile(), 0.05), &t);
  EXPECT_EQ(t.timers().at("workload").count, 2u);
  EXPECT_EQ(t.timers().size(), 1u) << "no other span";
}

}  // namespace
}  // namespace xh

#endif  // XH_OBS_NOOP
