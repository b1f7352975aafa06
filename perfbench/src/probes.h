// Isolated timing of each layer's public entry point, on inputs shaped like
// the workload just run: the traced run multiplies each cost by that
// layer's op count to attribute the run's CPU time.
#pragma once

#include <cstdint>

#include "perfbench/src/workloads.h"

namespace perfbench {

/// Workload shape the probes reproduce.
struct ProbeShape {
  std::int64_t heap_depth = 0;  // median heap entries seen at slice boundaries
  double cnps_per_data = 0;     // DCQCN: CNPs per data packet
  double acks_per_data = 0;     // recovery: ACKs per data packet
};

/// Host nanoseconds per call, median of several trials.
struct LayerCosts {
  double replay_ns = 0;    // Simulator::schedule_at + run, per event, at the heap depth
  double route_ns = 0;     // Switch::route_port over the workload's flows
  double mmu_ns = 0;       // Mmu::admit + release pair
  double hash_ns = 0;      // five_tuple_hash
  double dcqcn_ns = 0;     // DcqcnRp::on_bytes_sent / on_cnp
  double recovery_ns = 0;  // LossRecoveryEngine::on_tx_segment / on_ack
};

/// Times every probe. Uses the workload's fabric (its switches, MMUs and
/// flows) after the run, so call it last: route_port fills flow caches.
[[nodiscard]] LayerCosts measure_layer_costs(Workload& w, const ProbeShape& shape);

}  // namespace perfbench
