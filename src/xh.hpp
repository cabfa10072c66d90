// Umbrella header: the consolidated public API of the xhybrid library.
//
// One include gives an application everything the CLI, benches and examples
// use: the pipeline context, the hybrid analysis/simulation entry points,
// the partition engine, the lower-stage primitives they compose, the
// observability spine (xh::Trace + the xh-telemetry/1 serializer) and the
// structured diagnostics. Internal building blocks (netlist, ATPG, fault
// simulation, stimulus decompression) stay behind their own headers — they
// are library plumbing, not the paper-facing surface.
//
// Canonical usage (DESIGN.md §10):
//
//   xh::PipelineContext ctx(cfg);   // cfg is a PartitionerConfig
//   ctx.be_lenient();               // or ctx.adopt_collector(&diags)
//   ctx.set_trace(&trace);          // optional observability
//   auto report = xh::run_hybrid_analysis(xm, ctx);
#pragma once

// Shared utilities: bit vectors, diagnostics, RNG, thread pool.
#include "util/bitvec.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Observability: metrics/span registry and the canonical telemetry JSON.
#include "obs/telemetry_json.hpp"
#include "obs/trace.hpp"

// Response-side data model and serialization.
#include "response/io.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "response/x_stats.hpp"

// MISR: X-canceling session and accounting.
#include "misr/accounting.hpp"
#include "misr/x_cancel.hpp"

// X-masking.
#include "masking/mask.hpp"
#include "masking/mask_encoding.hpp"

// Storage: the store the partition engine probes, a view of an XMatrix.
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"

// Engine: pipeline context, incremental partition engine, stage seams.
#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "engine/pipeline.hpp"
#include "engine/pipeline_context.hpp"

// Service: resident job runner with admission control, deadlines, retry
// and crash-safe checkpointing.
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"

// Core: reference partitioner, hybrid pipeline, paper example, payload.
#include "core/hybrid.hpp"
#include "core/paper_example.hpp"
#include "core/partitioner.hpp"
#include "core/tester_payload.hpp"

// Baselines compared against in Table 1.
#include "baseline/chain_masking.hpp"
#include "baseline/superset.hpp"
