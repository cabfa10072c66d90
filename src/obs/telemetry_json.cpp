#include "obs/telemetry_json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace xh {

const char* const kTelemetrySchema = "xh-telemetry/1";

const std::vector<std::string>& telemetry_schema_names() {
  // xh-telemetry-schema-begin — every literal between the markers is part
  // of the canonical xh-telemetry/1 instrument registry; xh_lint rule
  // XH-OBS-001 validates instrument-name literals tree-wide against it.
  static const std::vector<std::string> kNames = {
      // span leaf names (timers)
      "analysis",
      "atpg",
      "cancel",
      "capture",
      "drop",
      "engine",
      "fault_sim",
      "from_response",
      "mask",
      "partition",
      "podem",
      "random",
      "simulation",
      "store",
      "validate",
      "workload",
      // atpg.* counters (generate_test_set)
      "atpg.backtracks",
      "atpg.discarded",
      "atpg.lane_steps",
      "atpg.rounds",
      "atpg.searches",
      // bench.* gauges (bench_partitioner / bench_robustness / bench_table1
      // / bench_service)
      "bench.cells",
      "bench.checkpoint_tax",
      "bench.direct_ms",
      "bench.dispatch_overhead",
      "bench.engine_ms",
      "bench.engine_pooled_ms",
      "bench.engine_rounds_per_sec",
      "bench.flood_cap",
      "bench.jobs",
      "bench.jobs_per_sec",
      "bench.kernel_and_count_best_ms",
      "bench.kernel_and_count_ref_ms",
      "bench.kernel_and_count_scalar_ms",
      "bench.kernel_best_isa",
      "bench.kernel_scalar_overhead",
      "bench.kernel_speedup",
      "bench.partitions",
      "bench.patterns",
      "bench.peak_rss_kb",
      "bench.reference_ms",
      "bench.results_identical",
      "bench.rounds",
      "bench.scaling",
      "bench.service_checkpointed_ms",
      "bench.service_pooled_ms",
      "bench.service_serial_ms",
      "bench.speedup",
      "bench.total_x",
      // engine.* counters
      "engine.cell_analyses",
      "engine.pool_tasks",
      "engine.probes_accepted",
      "engine.probes_attempted",
      "engine.probes_rejected_zero_copy",
      "engine.rounds_cancelled",
      "engine.rows_examined",
      "engine.snapshot_restores",
      "engine.victim_rows",
      // fault.* counters (FaultSimulator::run)
      "fault.gates_evaluated",
      // hybrid.* result gauges
      "hybrid.canceling_bits",
      "hybrid.degraded",
      "hybrid.leaked_x",
      "hybrid.masked_x",
      "hybrid.masking_bits",
      "hybrid.partitions",
      "hybrid.total_bits",
      // kernel.* dispatch-layer gauge (export_kernel_telemetry)
      "kernel.isa",
      // masking.* counters/histograms
      "masking.cells_masked",
      "masking.control_bits",
      "masking.masked_cells_per_partition",
      "masking.partitions",
      "masking.violations",
      "masking.x_masked",
      // response_io.* parse counters
      "response_io.cell_records",
      "response_io.lines_parsed",
      "response_io.pattern_rows",
      "response_io.x_entries",
      // service.* job-runner counters/gauges (PartitionService)
      "service.checkpoints_resumed",
      "service.checkpoints_written",
      "service.heartbeats",
      "service.job_retries",
      "service.jobs_accepted",
      "service.jobs_cancelled",
      "service.jobs_completed",
      "service.jobs_degraded",
      "service.jobs_failed",
      "service.jobs_rejected_overload",
      "service.queue_depth",
      "service.queue_depth_peak",
      "service.watchdog_stalls",
      // store.* counters/gauges (XMatrixStore; see
      // src/storage/x_matrix_store.cpp). probe_* and rows_touched are pure
      // functions of the engine's work and golden-diff.
      "store.probe_count_in",
      "store.probe_hash_in",
      "store.probe_intersect",
      "store.resident_bytes",
      "store.rows_touched",
      // xcancel.* counters
      "xcancel.combinations_dropped",
      "xcancel.combinations_emitted",
      "xcancel.elimination_rows",
      "xcancel.eliminations",
      "xcancel.recheck_rows",
      "xcancel.segment_x",
      "xcancel.shift_cycles",
      "xcancel.starvation_repaid",
      "xcancel.starved_stops",
      "xcancel.stops",
      "xcancel.x_seen",
  };
  // xh-telemetry-schema-end
  return kNames;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Shortest-round-trip-ish double rendering; non-finite values (which only
/// a degenerate workload can produce) degrade to 0 so the document stays
/// valid JSON.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Emits one `"key": value` map section from any ordered map, with
/// @p render turning the mapped value into a JSON fragment.
template <typename Map, typename Render>
void append_section(std::string& out, const char* key, const Map& map,
                    Render render, bool trailing_comma) {
  out += "  ";
  append_escaped(out, key);
  out += ": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    out += render(value);
  }
  out += first ? "}" : "\n  }";
  if (trailing_comma) out += ',';
  out += '\n';
}

std::string render_histogram(const TraceHistogram& h) {
  std::string out = "{\"count\": " + num(h.count) + ", \"sum\": " +
                    num(h.sum) + ", \"min\": " + num(h.min) +
                    ", \"max\": " + num(h.max) + ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < TraceHistogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += '[' + num(TraceHistogram::bucket_lo(i)) + ", " +
           num(h.buckets[i]) + ']';
  }
  out += "]}";
  return out;
}

std::string render_timer(const TraceTimer& t) {
  return "{\"count\": " + num(t.count) + ", \"total_ms\": " +
         num(t.total_ms()) + ", \"max_ms\": " + num(t.max_ms()) + '}';
}

}  // namespace

std::string telemetry_to_json(const Trace& trace, const TelemetryMeta& meta,
                              const Diagnostics* diags,
                              const TelemetryJsonOptions& options) {
  std::string out = "{\n  \"schema\": ";
  append_escaped(out, kTelemetrySchema);
  out += ",\n  \"tool\": ";
  append_escaped(out, meta.tool);
  out += ",\n";

  // "run" preserves the caller's ordering: it is context, not a registry.
  out += "  \"run\": {";
  bool first = true;
  for (const auto& [key, value] : meta.run) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, key);
    out += ": ";
    append_escaped(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  const bool with_diags = diags != nullptr;
  append_section(out, "counters", trace.counters(),
                 [](const TraceCounter& c) { return num(c.value); }, true);
  append_section(out, "gauges", trace.gauges(),
                 [](const TraceGauge& g) { return num(g.value); }, true);
  append_section(out, "histograms", trace.histograms(), render_histogram,
                 options.include_timers || with_diags);
  if (options.include_timers) {
    append_section(out, "timers", trace.timers(), render_timer, with_diags);
  }
  if (with_diags) {
    // Only kinds that actually fired; counts are exact past the retention
    // cap, so this is the full mismatch-bucket census.
    std::map<std::string, std::uint64_t> kinds;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(DiagKind::kNumKinds_); ++k) {
      const std::size_t count = diags->count(static_cast<DiagKind>(k));
      if (count > 0) {
        kinds[diag_kind_name(static_cast<DiagKind>(k))] = count;
      }
    }
    append_section(out, "diagnostics", kinds,
                   [](std::uint64_t v) { return num(v); }, false);
  }
  out += "}\n";
  return out;
}

void write_telemetry_json(std::ostream& out, const Trace& trace,
                          const TelemetryMeta& meta, const Diagnostics* diags,
                          const TelemetryJsonOptions& options) {
  out << telemetry_to_json(trace, meta, diags, options);
}

}  // namespace xh
