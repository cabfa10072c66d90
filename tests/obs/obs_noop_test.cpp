// Compile-time off switch: this translation unit builds with XH_OBS_NOOP
// (set on the obs_noop_test target only), selecting the obs_noop inline
// namespace. Every instrumentation helper must still type-check against the
// live signatures and leave the registry untouched, so a whole-tree
// -DXH_OBS_NOOP build compiles every instrumented call site to nothing.
// Linking against the live-mode library is the ODR point being exercised:
// distinct inline namespaces keep the two helper sets from colliding.
#ifndef XH_OBS_NOOP
#error "obs_noop_test must be compiled with XH_OBS_NOOP"
#endif

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "obs/telemetry_json.hpp"

namespace xh {
namespace {

// The compiled-out handles hold no state.
static_assert(std::is_empty_v<TraceCounterHandle>);
static_assert(std::is_empty_v<TraceHistogramHandle>);

TEST(ObsNoop, HelpersCompileAndDiscardEverything) {
  Trace t;
  obs_count(&t, "events");
  obs_count(&t, "events", 42);
  obs_gauge(&t, "ratio", 3.5);
  obs_record(&t, "sizes", 7);
  const TraceCounterHandle handle = obs_counter(&t, "hot");
  obs_add(handle);
  obs_add(handle, 9);
  const TraceHistogramHandle hist = obs_histogram(&t, "hot_sizes");
  obs_record(hist, 3);
  { const ScopedSpan span(&t, "analysis"); }
  // The registry never saw any of it: call sites are compiled out.
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.open_spans(), 0u);
}

TEST(ObsNoop, NullTraceStillAccepted) {
  obs_count(nullptr, "a");
  obs_gauge(nullptr, "b", 1.0);
  obs_record(nullptr, "c", 2);
  obs_add(obs_counter(nullptr, "d"), 5);
  obs_record(obs_histogram(nullptr, "f"), 6);
  const ScopedSpan span(nullptr, "e");
}

TEST(ObsNoop, RegistryAndSerializerStayReal) {
  // The Trace class and the telemetry serializer are always live — only the
  // instrumentation helpers compile out — so telemetry consumers keep
  // working in a noop build (they just see empty sections).
  Trace t;
  t.counter("direct").value = 5;  // direct registry access is unaffected
  EXPECT_EQ(t.counters().at("direct").value, 5u);

  TelemetryMeta meta;
  meta.tool = "obs_noop_test";
  const std::string doc = telemetry_to_json(t, meta);
  EXPECT_NE(doc.find("\"schema\": \"xh-telemetry/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"direct\": 5"), std::string::npos);
}

}  // namespace
}  // namespace xh
