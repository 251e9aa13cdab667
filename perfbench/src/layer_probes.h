// Per-layer replay probes for the traced run.
//
// The layers that run inside Backend::submit cannot be timed from the
// benchmark's side of the API one call at a time, so the traced run
// replays the workload's own generated reports through each layer's
// public function and times that: report validation, shard routing,
// translation, secondary-index apply/publish with delivery-sized
// deltas, DTA payload encode/decode and RoCE datagram build/parse.
#pragma once

#include <cstdint>

#include "workload.h"

namespace perfbench {

struct LayerProbeResults {
  double validate_ns_per_report = 0;
  double route_ns_per_report = 0;
  double translate_ns_per_report = 0;
  double index_apply_ns_per_key = 0;
  double index_leaf_copies_per_delta = 0;
  // One round's keys folded into the index as one delta, then published
  // (FabricBackend's fold at each snapshot rebuild).
  double index_fold_us_per_round = 0;
  double wire_encode_ns_per_report = 0;
  double wire_decode_ns_per_report = 0;
  double rdma_frame_ns_per_verb = 0;
};

LayerProbeResults run_layer_probes(const WorkloadSpec& spec,
                                   std::uint64_t seed);

}  // namespace perfbench
