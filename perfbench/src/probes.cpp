#include "perfbench/src/probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/packet.h"
#include "src/nic/dcqcn.h"
#include "src/nic/recovery.h"
#include "src/sim/simulator.h"
#include "src/switch/mmu.h"
#include "src/switch/sw.h"

namespace perfbench {

using namespace rocelab;

namespace {

constexpr int kTrials = 5;

// Results of the timed calls land here so no call can be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over kTrials of (host ns of one `trial()` call / ops it returns).
template <class Trial>
double median_ns_per_op(Trial&& trial) {
  std::vector<double> v;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::int64_t ops = trial();
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    v.push_back(ns / static_cast<double>(std::max<std::int64_t>(ops, 1)));
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One RoCE data packet per flow, each with its own UDP source port, as
/// the NICs stamp them.
std::vector<Packet> flow_packets(const Workload& w) {
  std::vector<Packet> pkts;
  Rng rng(7);
  for (const auto& [src, dst] : w.flows()) {
    Packet p;
    p.kind = PacketKind::kRoceData;
    p.frame_bytes = 1086;
    p.payload_bytes = 1024;
    p.ip = Ipv4Header{};
    p.ip->src = src;
    p.ip->dst = dst;
    p.ip->dscp = 3;
    p.udp = UdpHeader{static_cast<std::uint16_t>(rng.uniform_int(49152, 65535)), kRoceUdpPort,
                      0};
    pkts.push_back(p);
  }
  return pkts;
}

struct Replay {
  Simulator* sim;
  const std::vector<Time>* gaps;
  std::size_t next = 0;
  std::int64_t fired = 0;
};

void replay_fire(Replay* r) {
  ++r->fired;
  const Time gap = (*r->gaps)[r->next++ % r->gaps->size()];
  r->sim->schedule_in(gap, [r] { replay_fire(r); });
}

double replay_ns(std::int64_t depth) {
  // A self-sustaining population of `depth` events: each one that fires
  // schedules one more, so the heap stays at the observed depth.
  depth = std::max<std::int64_t>(depth, 16);
  constexpr Time kMeanGap = 1000;  // ps; only the ratio to depth matters
  Rng rng(11);
  std::vector<Time> gaps(4096);
  for (Time& g : gaps) {
    g = 1 + static_cast<Time>(rng.uniform(0.0, 2.0) * static_cast<double>(kMeanGap * depth));
  }
  constexpr std::int64_t kEvents = 200'000;
  return median_ns_per_op([&] {
    Simulator sim;
    Replay r{&sim, &gaps};
    for (std::int64_t i = 0; i < depth; ++i) {
      sim.schedule_at(gaps[static_cast<std::size_t>(i) % gaps.size()], [p = &r] { replay_fire(p); });
    }
    sim.run_until(kEvents * kMeanGap);
    return r.fired;
  });
}

double route_ns(Fabric& fabric, const std::vector<Packet>& pkts) {
  std::vector<Switch*> sws = fabric.switch_ptrs();
  auto sweep = [&] {
    std::int64_t n = 0;
    std::uint64_t sink = 0;
    for (Switch* sw : sws) {
      for (const Packet& p : pkts) {
        sink += static_cast<std::uint64_t>(sw->route_port(p));
        ++n;
      }
    }
    g_sink = sink;
    return n;
  };
  sweep();  // the workload ran with warm flow caches
  return median_ns_per_op([&] {
    std::int64_t n = 0;
    while (n < 200'000) n += sweep();
    return n;
  });
}

double mmu_ns(Fabric& fabric) {
  Switch& sw = *fabric.switch_ptrs().front();
  Mmu& mmu = sw.mmu();
  const int ports = sw.port_count();
  return median_ns_per_op([&] {
    constexpr std::int64_t kOps = 200'000;
    for (std::int64_t i = 0; i < kOps; ++i) {
      const int port = static_cast<int>(i % ports);
      const Mmu::Admission a = mmu.admit(port, 3, 1086);
      mmu.release(port, 3, a.to_shared, a.to_headroom, a.to_reserved);
    }
    return kOps;
  });
}

double hash_ns(const std::vector<Packet>& pkts) {
  return median_ns_per_op([&] {
    std::int64_t n = 0;
    std::uint64_t sink = 0;
    while (n < 400'000) {
      for (const Packet& p : pkts) {
        sink ^= five_tuple_hash(p, 0x9e37u + static_cast<std::uint64_t>(n++ & 7));
      }
    }
    g_sink = sink;
    return n;
  });
}

/// Every `period`-th op is the rarer call; period 0 means never.
std::int64_t period_of(double per_op) {
  return per_op > 0 ? std::max<std::int64_t>(1, std::llround(1.0 / per_op)) : 0;
}

double dcqcn_ns(double cnps_per_data) {
  const std::int64_t cnp_every = period_of(cnps_per_data);
  return median_ns_per_op([&] {
    Simulator sim;
    DcqcnRp rp(sim, DcqcnConfig{}, gbps(40));
    constexpr std::int64_t kPkts = 200'000;
    std::int64_t ops = 0;
    for (std::int64_t i = 0; i < kPkts; ++i) {
      rp.on_bytes_sent(1086);
      ++ops;
      if (cnp_every > 0 && i % cnp_every == 0) {
        rp.on_cnp();
        ++ops;
      }
    }
    return ops;
  });
}

double recovery_ns(const QpConfig& qp, double acks_per_data) {
  const std::int64_t ack_every = std::max<std::int64_t>(1, period_of(acks_per_data));
  return median_ns_per_op([&] {
    RecoveryCounters counters;
    const auto engine = LossRecoveryEngine::make(qp, &counters);
    constexpr std::int64_t kPkts = 200'000;
    std::int64_t ops = 0;
    for (std::int64_t psn = 0; psn < kPkts; ++psn) {
      const Time now = psn * 1000;
      engine->on_tx_segment(static_cast<std::uint64_t>(psn), false, now);
      ++ops;
      if ((psn + 1) % ack_every == 0) {
        engine->on_ack(static_cast<std::uint64_t>(psn + 1), std::nullopt, now + 500);
        ++ops;
      }
    }
    return ops;
  });
}

}  // namespace

LayerCosts measure_layer_costs(Workload& w, const ProbeShape& shape) {
  const std::vector<Packet> pkts = flow_packets(w);
  LayerCosts c;
  c.replay_ns = replay_ns(shape.heap_depth);
  c.route_ns = route_ns(w.fabric(), pkts);
  c.mmu_ns = mmu_ns(w.fabric());
  c.hash_ns = hash_ns(pkts);
  c.dcqcn_ns = dcqcn_ns(shape.cnps_per_data);
  c.recovery_ns = recovery_ns(w.qp_config(), shape.acks_per_data);
  return c;
}

}  // namespace perfbench
