// Compile-fail fixture, built by no target. Each statement in
// discard_every_status() throws away a by-value result of one of the 13
// status types; their class-level [[nodiscard]] makes every one an error
// under -Werror, whatever function returned it. check_discards.cmake
// compiles this file with -fsyntax-only and passes only on exactly 13
// "ignoring returned value of type" errors and no other error.
#include "atpg/podem.hpp"
#include "atpg/test_generation.hpp"
#include "baseline/chain_masking.hpp"
#include "baseline/superset.hpp"
#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "fault/fault_sim.hpp"
#include "fault/transition.hpp"
#include "misr/x_cancel.hpp"
#include "service/job_runner.hpp"
#include "stimulus/decompressor.hpp"
#include "util/diagnostics.hpp"

template <typename T>
T produce();

void discard_every_status() {
  produce<xh::Diagnostics>();
  produce<xh::SubmitOutcome>();
  produce<xh::JobResult>();
  produce<xh::PartitionEngine::StepOutcome>();
  produce<xh::PartitionResult>();
  produce<xh::XCancelResult>();
  produce<xh::AtpgResult>();
  produce<xh::PodemResult>();
  produce<xh::FaultSimResult>();
  produce<xh::TransitionSimResult>();
  produce<xh::CompressionResult>();
  produce<xh::ChainMaskingResult>();
  produce<xh::SupersetResult>();
}
