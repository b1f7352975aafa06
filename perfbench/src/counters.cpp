#include "perfbench/src/counters.h"

#include "src/sim/shard_group.h"

namespace perfbench {

using namespace rocelab;

namespace {

// Registry patterns, in the order read() consumes them.
enum Sel : std::size_t {
  kFrames,
  kBytes,
  kPauses,
  kPaused,
  kSwFramesTor,
  kSwFramesLeaf,
  kSwFramesSpine,
  kSwRxTor,
  kSwRxLeaf,
  kSwRxSpine,
  kFlowCacheHits,
  kFloods,
  kDataPkts,
  kRetx,
  kAcks,
  kCnps,
  kTimeouts,
  kSelrepRetx,
  kReissues,
  kDupRequests,
  kMessages,
  kAtomicCompletions,
  kBytesReceived,
  kFirstDrop,  // every drop counter from here on
};

constexpr const char* kPatterns[] = {
    "*/port*/prio*/tx_packets",
    "*/port*/prio*/tx_bytes",
    "*/port*/prio*/tx_pause",
    "*/port*/prio*/paused_time",
    "tor*/port*/prio*/tx_packets",
    "leaf*/port*/prio*/tx_packets",
    "spine*/port*/prio*/tx_packets",
    "tor*/port*/prio*/rx_packets",
    "leaf*/port*/prio*/rx_packets",
    "spine*/port*/prio*/rx_packets",
    "*/sw/flow_cache_hits",
    "*/sw/flood_events",
    "*/rdma/data_packets_sent",
    "*/rdma/data_packets_retx",
    "*/rdma/acks_sent",
    "*/rdma/cnps_received",
    "*/rdma/timeouts",
    "*/rdma/selrep/retx",
    "*/rdma/atomic/reissues",
    "*/rdma/atomic/dup_requests",
    "*/rdma/messages_completed",
    "*/rdma/atomic/completions",
    "*/rdma/bytes_received",
    // drops
    "*/port*/ingress_drops",
    "*/port*/headroom_overflow_drops",
    "*/port*/egress_drops",
    "*/port*/arp_incomplete_drops",
    "*/port*/mac_mismatch_drops",
    "*/port*/link_down_drops",
    "*/port*/fcs_errors",
    "*/port*/impairment_drops",
    "*/port*/filtered_drops",
    "*/sw/no_route_drops",
    "*/sw/arp_miss_drops",
    "*/sw/l2_mode_drops",
};

}  // namespace

LayerCounts LayerCounts::minus(const LayerCounts& b) const {
  LayerCounts d = *this;
  d.events -= b.events;
  d.scheduled -= b.scheduled;
  d.pending -= b.pending;
  d.windows -= b.windows;
  d.cross_messages -= b.cross_messages;
  for (std::size_t i = 0; i < d.shard_events.size() && i < b.shard_events.size(); ++i) {
    d.shard_events[i] -= b.shard_events[i];
  }
  d.frames -= b.frames;
  d.bytes -= b.bytes;
  d.pause_frames -= b.pause_frames;
  d.paused_ps -= b.paused_ps;
  d.drops -= b.drops;
  d.sw_frames -= b.sw_frames;
  d.sw_admitted -= b.sw_admitted;
  d.sw_routed -= b.sw_routed;
  d.flow_cache_hits -= b.flow_cache_hits;
  d.floods -= b.floods;
  d.data_pkts -= b.data_pkts;
  d.retx -= b.retx;
  d.acks -= b.acks;
  d.cnps -= b.cnps;
  d.timeouts -= b.timeouts;
  d.selrep_retx -= b.selrep_retx;
  d.atomic_reissues -= b.atomic_reissues;
  d.dup_requests -= b.dup_requests;
  d.messages_completed -= b.messages_completed;
  d.atomic_completions -= b.atomic_completions;
  d.bytes_received -= b.bytes_received;
  return d;
}

CounterReader::CounterReader(Fabric& fabric) : fabric_(fabric) {
  const MetricRegistry& reg = fabric.sim().metrics();
  for (const char* p : kPatterns) sel_.emplace_back(reg, p);
  for (Switch* sw : fabric.switch_ptrs()) {
    for (int p = 0; p < sw->port_count(); ++p) {
      if (sw->port_role(p) == PortRole::kFabric) fabric_ports_.push_back(&sw->port(p));
    }
  }
  for (const std::uint32_t id : reg.select("*/mmu/shared_used")) {
    mmu_used_.push_back(reg.entry(id).value);
  }
}

LayerCounts CounterReader::read() const {
  LayerCounts c;
  ShardGroup& g = fabric_.group();
  c.events = static_cast<std::int64_t>(g.executed_events());
  c.pending = static_cast<std::int64_t>(g.pending_events());
  for (int i = 0; i < g.shard_count(); ++i) {
    c.scheduled += static_cast<std::int64_t>(g.shard(i).scheduled_events());
    c.shard_events.push_back(static_cast<std::int64_t>(g.shard(i).executed_events()));
  }
  if (g.shard_count() > 1) c.scheduled += static_cast<std::int64_t>(g.control().scheduled_events());
  c.windows = g.windows();
  c.cross_messages = g.cross_messages();

  auto s = [this](Sel i) { return sel_[i].sum(); };
  c.frames = s(kFrames);
  c.bytes = s(kBytes);
  c.pause_frames = s(kPauses);
  c.paused_ps = s(kPaused);
  for (std::size_t i = kFirstDrop; i < sel_.size(); ++i) c.drops += sel_[i].sum();
  c.sw_frames = s(kSwFramesTor) + s(kSwFramesLeaf) + s(kSwFramesSpine);
  c.sw_admitted = s(kSwRxTor) + s(kSwRxLeaf) + s(kSwRxSpine);
  for (const EgressPort* p : fabric_ports_) {
    for (const std::int64_t v : p->counters().tx_packets) c.sw_routed += v;
  }
  c.flow_cache_hits = s(kFlowCacheHits);
  c.floods = s(kFloods);
  c.data_pkts = s(kDataPkts);
  c.retx = s(kRetx);
  c.acks = s(kAcks);
  c.cnps = s(kCnps);
  c.timeouts = s(kTimeouts);
  c.selrep_retx = s(kSelrepRetx);
  c.atomic_reissues = s(kReissues);
  c.dup_requests = s(kDupRequests);
  c.messages_completed = s(kMessages);
  c.atomic_completions = s(kAtomicCompletions);
  c.bytes_received = s(kBytesReceived);
  return c;
}

std::int64_t CounterReader::queued_entries() const {
  ShardGroup& g = fabric_.group();
  std::int64_t n = 0;
  for (int i = 0; i < g.shard_count(); ++i) {
    n += static_cast<std::int64_t>(g.shard(i).queued_entries());
  }
  if (g.shard_count() > 1) n += static_cast<std::int64_t>(g.control().queued_entries());
  return n;
}

std::vector<std::int64_t> CounterReader::mmu_shared_used() const {
  std::vector<std::int64_t> v;
  v.reserve(mmu_used_.size());
  for (const std::int64_t* p : mmu_used_) v.push_back(*p);
  return v;
}

}  // namespace perfbench
