#include "core/tester_payload.hpp"

#include "util/check.hpp"

namespace xh {

TesterPayload build_tester_payload(const HybridSimulation& sim) {
  const PartitionResult& pr = sim.report.partitioning;
  XH_REQUIRE(!pr.partitions.empty(), "simulation carries no partitions");

  TesterPayload payload;
  payload.partitions.reserve(pr.partitions.size());
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    TesterPayload::PartitionSection section;
    section.patterns = pr.partitions[i];
    section.mask = encode_mask(pr.masks[i]);
    section.raw_mask_bits = pr.masks[i].size();
    payload.raw_mask_bits += section.raw_mask_bits;
    payload.coded_mask_bits += section.mask.bits();
    for (const std::size_t p : section.patterns.set_bits()) {
      payload.pattern_order.push_back(p);
    }
    payload.partitions.push_back(std::move(section));
  }
  XH_ASSERT(payload.pattern_order.size() == sim.report.num_patterns,
            "partitions must cover every pattern exactly once");

  // Canceling schedule: the selection vectors actually extracted by the
  // real session (identity reads of a fully deterministic final signature
  // cost nothing and are excluded, matching the accounting).
  for (const SignatureBit& sig : sim.cancel.signature) {
    if (sig.stop_index < sim.cancel.stops) {
      payload.cancel_vectors.push_back(sig.combination.to_bitvec());
      payload.cancel_bits += sig.combination.size();
    }
  }
  return payload;
}

}  // namespace xh
