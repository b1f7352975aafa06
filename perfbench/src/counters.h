// Per-layer counts read from a running fabric: the sim layer from the
// ShardGroup/Simulator accessors, everything else from the MetricRegistry
// (selections resolved once, so a snapshot per traced slice stays cheap).
#pragma once

#include <cstdint>
#include <vector>

#include "src/monitor/metric_registry.h"
#include "src/topo/fabric.h"

namespace perfbench {

/// Cumulative counters at one instant; subtract two for a window.
struct LayerCounts {
  // sim
  std::int64_t events = 0;
  std::int64_t scheduled = 0;
  std::int64_t pending = 0;
  std::int64_t windows = 0;
  std::int64_t cross_messages = 0;
  std::vector<std::int64_t> shard_events;
  // link: every EgressPort, hosts and switches
  std::int64_t frames = 0;
  std::int64_t bytes = 0;
  std::int64_t pause_frames = 0;
  std::int64_t paused_ps = 0;
  std::int64_t drops = 0;
  // switch
  std::int64_t sw_frames = 0;    // frames switches transmitted
  std::int64_t sw_admitted = 0;  // frames switches received (one MMU admit each)
  std::int64_t sw_routed = 0;    // frames sent out fabric-facing ports (one route lookup each)
  std::int64_t flow_cache_hits = 0;
  std::int64_t floods = 0;
  // nic
  std::int64_t data_pkts = 0;
  std::int64_t retx = 0;
  std::int64_t acks = 0;
  std::int64_t cnps = 0;
  std::int64_t timeouts = 0;
  std::int64_t selrep_retx = 0;
  std::int64_t atomic_reissues = 0;
  std::int64_t dup_requests = 0;
  // app-visible completions
  std::int64_t messages_completed = 0;
  std::int64_t atomic_completions = 0;
  std::int64_t bytes_received = 0;

  [[nodiscard]] LayerCounts minus(const LayerCounts& base) const;
};

class CounterReader {
 public:
  explicit CounterReader(rocelab::Fabric& fabric);

  [[nodiscard]] LayerCounts read() const;
  /// Heap entries, live and stale, across every shard and the control lane.
  [[nodiscard]] std::int64_t queued_entries() const;
  /// Each switch's shared-buffer occupancy, bytes.
  [[nodiscard]] std::vector<std::int64_t> mmu_shared_used() const;

 private:
  rocelab::Fabric& fabric_;
  std::vector<rocelab::MetricSelection> sel_;
  std::vector<const rocelab::EgressPort*> fabric_ports_;  // switch ports facing switches
  std::vector<const std::int64_t*> mmu_used_;             // one gauge per switch
};

}  // namespace perfbench
