#include "perfbench/src/workloads.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/app/demux.h"
#include "src/app/lock_table.h"
#include "src/app/traffic.h"
#include "src/common/rng.h"
#include "src/faults/chaos.h"
#include "src/link/impairment.h"
#include "src/monitor/metric_registry.h"
#include "src/net/packet.h"
#include "src/nic/rdma_nic.h"
#include "src/rocev2/deployment.h"

namespace perfbench {

using namespace rocelab;

const std::vector<WorkloadSpec>& workload_specs() {
  using K = WorkloadSpec::Kind;
  static const std::vector<WorkloadSpec> kSpecs = {
      {"clos_mixed", K::kClosMix, 2, 1, milliseconds(2), milliseconds(8), microseconds(250), 8},
      {"clos_sharded", K::kClosMix, 4, 4, milliseconds(2), milliseconds(8), microseconds(250),
       8},
      {"lock_table_lossy", K::kLockTable, 2, 1, milliseconds(2), milliseconds(20),
       microseconds(250), 1},
      // Test-only: the clos_mixed builder over a window small enough for a
      // unit test. Not listed in BENCHMARK.json.
      {"smoke", K::kClosMix, 2, 1, microseconds(200), microseconds(500), microseconds(100), 2},
  };
  return kSpecs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

/// The seeded input of one variant; variants of a seed never collide
/// with those of another.
std::uint64_t input_seed(std::uint64_t seed, int variant) {
  return mix64(seed * 64 + static_cast<std::uint64_t>(variant));
}

/// A connected QP end, recorded while connecting so the app that uses it
/// can be attached once every QP exists.
struct QpEnd {
  Host* host;
  RdmaDemux* demux;
  std::uint32_t qpn;
};

std::int64_t registry_sum(Fabric& fabric, const char* pattern) {
  return fabric.sim().metrics().sum(pattern);
}

/// perf_gate's fixed workload: a `podsets` x 2 x 3 x 4 Clos plus 4 spines,
/// lossless PFC + go-back-N + DCQCN, carrying closed-loop 32 KiB streams
/// (2 QPs per direction, 2 outstanding each) between paired podsets, a
/// 100 us Pingmesh from server (0,0,0), and a Poisson incast from server
/// (0,1,1). Construction follows perf_gate call for call — including one
/// RdmaDemux per call, so the last demux built for a host is the one its
/// NIC reports to — which is what lets seed 0 at 2 podsets reproduce the
/// pinned determinism digest. Every other (seed, variant) permutes, per
/// podset pair, which server of the upper podset each lower-podset server
/// streams with; seed 0's variant 0 keeps the mirror pairing.
///
/// perf_gate's Pingmesh peers run no responder, so its probes are load
/// that never records an RTT; the latency this workload reports is the
/// streams' message completion latency.
class ClosMix final : public Workload {
 public:
  ClosMix(int podsets, int shards, std::uint64_t seed, int variant, SetupTimes* times,
          Tracer* tracer) {
    constexpr int kTors = 3, kServers = 4, kPerPodset = kTors * kServers;
    const int half = podsets / 2;
    times->build_s = timed(tracer, "topo.build", [&] {
      ClosParams params = make_clos_params(policy_, DeploymentStage::kFull, podsets,
                                           /*leaves=*/2, kTors, kServers, /*spines=*/4);
      params.shards = shards;
      clos_ = std::make_unique<ClosFabric>(params);
    });
    qp_ = make_qp_config(policy_);

    // partner[m][i]: index (t * kServers + s) in podset m + half of the
    // server that server i of podset m pairs with.
    std::vector<std::vector<int>> partner(static_cast<std::size_t>(half));
    const bool mirror = seed == 0 && variant == 0;
    Rng rng(input_seed(seed, variant));
    for (auto& p : partner) {
      p.resize(kPerPodset);
      std::iota(p.begin(), p.end(), 0);
      if (mirror) continue;
      for (int i = kPerPodset - 1; i > 0; --i) {
        std::swap(p[static_cast<std::size_t>(i)],
                  p[static_cast<std::size_t>(rng.uniform_int(0, i))]);
      }
    }

    std::vector<QpEnd> streams, echoes;
    std::vector<std::uint32_t> probe_qpns, incast_qpns;
    RdmaDemux* prober_demux = nullptr;
    RdmaDemux* client_demux = nullptr;
    Host& prober = clos_->server(0, 0, 0);
    Host& client = clos_->server(0, 1, 1);
    auto connect = [&](Host& a, Host& b, const QpConfig& cfg) {
      flows_.emplace_back(a.ip(), b.ip());
      return connect_qp_pair(a, b, cfg);
    };

    times->connect_s = timed(tracer, "nic.connect", [&] {
      timed(tracer, "nic.connect.streams", [&] {
        for (int t = 0; t < kTors; ++t) {
          for (int s = 0; s < kServers; ++s) {
            for (int m = 0; m < half; ++m) {
              const int j = partner[static_cast<std::size_t>(m)]
                                   [static_cast<std::size_t>(t * kServers + s)];
              Host& low = clos_->server(m, t, s);
              Host& high = clos_->server(m + half, j / kServers, j % kServers);
              for (int dir = 0; dir < 2; ++dir) {
                Host& src = dir == 0 ? low : high;
                Host& dst = dir == 0 ? high : low;
                RdmaDemux& demux = demux_for(src);
                for (int q = 0; q < 2; ++q) {
                  streams.push_back({&src, &demux, connect(src, dst, qp_).first});
                }
              }
            }
          }
        }
      });
      timed(tracer, "nic.connect.pingmesh", [&] {
        prober_demux = &demux_for(prober);
        for (int ps = 1; ps < podsets; ++ps) {
          for (int t = 0; t < kTors; ++t) {
            probe_qpns.push_back(
                connect(prober, clos_->server(ps, t, 0), make_qp_config(policy_, true)).first);
          }
        }
      });
      timed(tracer, "nic.connect.incast", [&] {
        client_demux = &demux_for(client);
        for (int ps = 1; ps < podsets; ++ps) {
          for (int t = 0; t < kTors; ++t) {
            Host& responder = clos_->server(ps, t, 3);
            const auto [qa, qb] = connect(client, responder, qp_);
            echoes.push_back({&responder, &demux_for(responder), qb});
            incast_qpns.push_back(qa);
          }
        }
      });
    });

    times->start_s = timed(tracer, "app.start", [&] {
      for (const QpEnd& st : streams) {
        sources_.push_back(std::make_unique<RdmaStreamSource>(
            *st.host, *st.demux, st.qpn,
            RdmaStreamSource::Options{.message_bytes = 32 * kKiB, .max_outstanding = 2}));
        sources_.back()->start();
      }
      pingmesh_ = std::make_unique<RdmaPingmesh>(
          prober, *prober_demux, probe_qpns, RdmaPingmesh::Options{.interval = microseconds(100)});
      pingmesh_->start();
      for (const QpEnd& e : echoes) {
        echoes_.push_back(std::make_unique<RdmaEchoServer>(*e.host, *e.demux, e.qpn,
                                                           /*response_bytes=*/4 * kKiB));
      }
      incast_ = std::make_unique<RdmaIncastClient>(
          client, *client_demux, incast_qpns,
          RdmaIncastClient::Options{.mean_interval = microseconds(100)});
      incast_->start();
    });
  }

  Fabric& fabric() override { return clos_->fabric(); }
  void begin_window() override {
    window_start_.clear();
    for (const auto& s : sources_) window_start_.push_back(s->latencies_us().count());
  }

  AppOutcome finish() override {
    AppOutcome out;
    // Stream message completion latency over the timed window. Nothing
    // queries a source's sampler during the run, so its samples are still
    // in completion order and those past window_start_ are the window's.
    std::int64_t stream_msgs = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const std::vector<double>& v = sources_[i]->latencies_us().samples();
      for (std::size_t k = window_start_[i]; k < v.size(); ++k) out.latency_us.add(v[k]);
    }
    for (const auto& s : sources_) stream_msgs += s->completed_messages();
    out.attempted = incast_->queries_completed() + stream_msgs;
    out.failed = pingmesh_->probes_failed() + registry_sum(fabric(), "*/rdma/qp_errors") +
                 registry_sum(fabric(), "*/rdma/corrupt_completions");
    if (stream_msgs <= 0) out.failed_checks.push_back("streams completed messages");
    if (incast_->queries_completed() <= 0) out.failed_checks.push_back("incast completed queries");
    if (out.latency_us.empty()) out.failed_checks.push_back("streams recorded latencies");
    // PFC keeps the lossless class lossless: no frame may be lost to buffer
    // overflow anywhere in the fabric.
    if (registry_sum(fabric(), "*/port*/headroom_overflow_drops") != 0 ||
        registry_sum(fabric(), "*/port*/ingress_drops") != 0) {
      out.failed_checks.push_back("lossless fabric dropped no frame");
    }
    return out;
  }

 private:
  RdmaDemux& demux_for(Host& h) {
    demuxes_.push_back(std::make_unique<RdmaDemux>(h));
    return *demuxes_.back();
  }

  QosPolicy policy_;
  std::unique_ptr<ClosFabric> clos_;
  std::vector<std::unique_ptr<RdmaDemux>> demuxes_;
  std::vector<std::unique_ptr<RdmaStreamSource>> sources_;
  std::vector<std::unique_ptr<RdmaEchoServer>> echoes_;
  std::unique_ptr<RdmaPingmesh> pingmesh_;
  std::unique_ptr<RdmaIncastClient> incast_;
  std::vector<std::size_t> window_start_;  // per source: latency samples before the window
};

/// fig_atomics' IRN arm on its loss axis: a 2-podset 2x2x2x2 Clos plus 4
/// spines with PFC off and selective repeat; 2100 closed-loop lock-table
/// clients (300 on each non-server host, roles round-robin locker /
/// counter / reader) against one lock server; 0.4% FCS loss on both of the
/// server rack's ToR uplinks from 1 ms, which is the atomic-ACK path.
/// Clients run unbounded cycles until `stop_at` (the end of the timed
/// window), so every client stays busy through it; drain() then lets every
/// in-flight verb finish for the exactly-once identities. The seed (and
/// variant) reaches the clients' Rng base and the impairment's loss draws.
class LockTableLossy final : public Workload {
 public:
  static constexpr int kClientsPerHost = 300;
  static constexpr int kLocks = 256;

  LockTableLossy(int shards, std::uint64_t seed, int variant, Time stop_at, SetupTimes* times,
                 Tracer* tracer)
      : stop_at_(stop_at) {
    policy_.max_cable_m = 20.0;
    policy_.retx_timeout = microseconds(100);
    policy_.pfc_enabled = false;
    policy_.recovery = LossRecovery::kSelectiveRepeat;
    times->build_s = timed(tracer, "topo.build", [&] {
      params_ = make_clos_params(policy_, DeploymentStage::kFull, /*podsets=*/2, /*leaves=*/2,
                                 /*tors=*/2, /*servers=*/2, /*spines=*/4);
      params_.shards = shards;
      clos_ = std::make_unique<ClosFabric>(params_);
    });
    server_ = &clos_->server(0, 0, 0);
    qp_ = make_qp_config(policy_);
    qp_.retry_limit = 0;  // retry forever: the fabric, not the transport, is on trial

    // One input seed feeds two independent streams: the clients' Rng base
    // and the impairment's loss draws.
    const std::uint64_t client_seed = mix64(input_seed(seed, variant) ^ 0x10c4);
    const std::uint64_t loss_seed = mix64(input_seed(seed, variant) ^ 0x1055);

    LockTableWorkload::Options wl;
    wl.locks = kLocks;
    wl.think_mean = microseconds(800);
    wl.backoff_mean = microseconds(20);
    wl.seed = client_seed;
    wl.stop_at = stop_at;
    table_ = std::make_unique<LockTableWorkload>(wl);

    std::vector<QpEnd> clients;
    times->connect_s = timed(tracer, "nic.connect", [&] {
      for (const auto& h : clos_->fabric().hosts()) {
        demuxes_.push_back(std::make_unique<RdmaDemux>(*h));
      }
      // Fixed (podset, tor, i) order keeps the global client index — and
      // with it each client's seed and role — independent of shard count.
      std::size_t host_index = 0;
      for (int ps = 0; ps < 2; ++ps) {
        for (int t = 0; t < 2; ++t) {
          for (int i = 0; i < 2; ++i, ++host_index) {
            Host& h = clos_->server(ps, t, i);
            if (&h == server_) continue;
            RdmaDemux* demux = demux_of(h);
            flows_.emplace_back(h.ip(), server_->ip());
            timed(tracer, "nic.connect.batch", [&] {
              for (int c = 0; c < kClientsPerHost; ++c) {
                clients.push_back({&h, demux, connect_qp_pair(h, *server_, qp_).first});
              }
            });
          }
        }
      }
    });

    times->start_s = timed(tracer, "app.start", [&] {
      int idx = 0;
      for (const QpEnd& c : clients) {
        table_->add_client(*c.host, *c.demux, c.qpn,
                           static_cast<LockTableWorkload::Role>(idx++ % 3));
      }
      table_->start();
      chaos_ = std::make_unique<ChaosEngine>(clos_->fabric(), /*seed=*/2016);
      LinkImpairment imp;
      imp.fcs_drop_rate = 0.004;
      imp.seed = loss_seed;
      for (int u = 0; u < params_.leaves_per_podset; ++u) {
        chaos_->impair_link(clos_->tor(0, 0), clos_->tor_uplink_port(u), imp, milliseconds(1));
      }
    });
  }

  Fabric& fabric() override { return clos_->fabric(); }

  void drain() override {
    // Past stop_at no client starts a cycle; run until every in-flight verb
    // (and the re-issues lost ACKs force) has completed.
    Simulator& sim = clos_->sim();
    const Time cap = stop_at_ + milliseconds(50);
    while (sim.now() < cap && (sim.now() < stop_at_ || table_->busy_clients() > 0)) {
      sim.run_until(std::max(sim.now(), stop_at_) + microseconds(500));
    }
  }

  AppOutcome finish() override {
    AppOutcome out;
    Fabric& f = fabric();
    out.latency_us = table_->lock_latencies_us();
    out.attempted = registry_sum(f, "*/rdma/atomic/completions");
    out.failed = registry_sum(f, "*/rdma/qp_errors") +
                 registry_sum(f, "*/rdma/corrupt_completions") + table_->busy_clients();
    const std::int64_t acq = table_->acquisitions(), rel = table_->releases();
    const std::int64_t casf = table_->cas_failures(), inc = table_->counter_increments();
    const std::int64_t reads = table_->reads();
    out.cas_fail_frac = acq + casf > 0 ? static_cast<double>(casf) / static_cast<double>(acq + casf) : 0.0;
    out.torn_read_frac =
        reads > 0 ? static_cast<double>(table_->torn_reads()) / static_cast<double>(reads) : 0.0;

    // fig_atomics' exactly-once identities, which only hold once drained.
    auto check = [&out](bool ok, const char* what) {
      if (!ok) out.failed_checks.push_back(what);
    };
    RdmaNic& nic = server_->rdma();
    check(table_->busy_clients() == 0, "lock table drained");
    check(nic.memory_read(LockTableLayout::kCounterAddr) == static_cast<std::uint64_t>(inc),
          "counter word == completed increments");
    check(registry_sum(f, "*/rdma/atomic/cas_executed") == acq + rel + casf &&
              registry_sum(f, "*/rdma/atomic/cas_failed") == casf,
          "CAS executions == client CAS completions");
    check(registry_sum(f, "*/rdma/atomic/faa_executed") == inc + 4 * rel + 4 * reads,
          "FAA executions == client FAA completions");
    bool locks_clean = true;
    for (int l = 0; l < kLocks; ++l) {
      const std::uint64_t ver = nic.memory_read(LockTableLayout::version_addr(l));
      locks_clean = locks_clean && nic.memory_read(LockTableLayout::lock_addr(l)) == 0 &&
                    (ver & 1) == 0 &&
                    nic.memory_read(LockTableLayout::data_a_addr(l)) ==
                        nic.memory_read(LockTableLayout::data_b_addr(l));
    }
    check(locks_clean, "every lock free and every seqlock whole");
    check(acq > 0 && inc > 0 && reads > 0, "lockers, counters and readers all completed work");
    check(registry_sum(f, "*/rdma/atomic/dup_requests") > 0,
          "replay table answered duplicate requests under loss");
    check(registry_sum(f, "*/port*/prio*/tx_pause") == 0, "PFC-off fabric sent no pause frame");
    return out;
  }

 private:
  RdmaDemux* demux_of(Host& h) {
    const auto& hosts = clos_->fabric().hosts();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i].get() == &h) return demuxes_[i].get();
    }
    throw std::logic_error("unknown host");
  }

  Time stop_at_;
  QosPolicy policy_;
  ClosParams params_;
  std::unique_ptr<ClosFabric> clos_;
  Host* server_ = nullptr;
  std::vector<std::unique_ptr<RdmaDemux>> demuxes_;
  std::unique_ptr<LockTableWorkload> table_;
  std::unique_ptr<ChaosEngine> chaos_;
};

}  // namespace

std::unique_ptr<Workload> build_workload(const WorkloadSpec& spec, std::uint64_t seed,
                                         int variant, int shards, SetupTimes* times,
                                         Tracer* tracer) {
  switch (spec.kind) {
    case WorkloadSpec::Kind::kClosMix:
      return std::make_unique<ClosMix>(spec.podsets, shards, seed, variant, times, tracer);
    case WorkloadSpec::Kind::kLockTable:
      return std::make_unique<LockTableLossy>(shards, seed, variant, spec.warmup + spec.window,
                                              times, tracer);
  }
  throw std::logic_error("unknown workload kind");
}

}  // namespace perfbench
