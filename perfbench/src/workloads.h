// The benchmark's workloads, each built only through the library's public
// API (ClosFabric, connect_qp_pair, the traffic generators, the lock table
// and the ChaosEngine). A workload object owns one fabric and everything
// driving it; the benchmark runs it with Simulator::run_until.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/common/stats.h"
#include "src/net/addr.h"
#include "src/nic/config.h"
#include "src/topo/fabric.h"

namespace perfbench {

using rocelab::Time;

/// Fixed shape of one workload: the fabric, its shard count, the
/// simulated warm-up / timed window / traced-slice lengths, and how many
/// input variants one seed generates. A run cycles through the variants so
/// its simulated metrics average over several draws of the seeded input
/// (ECMP collisions in a small Clos make one draw's tail latency swing).
struct WorkloadSpec {
  std::string name;
  enum class Kind { kClosMix, kLockTable } kind = Kind::kClosMix;
  int podsets = 2;
  int shards = 1;
  Time warmup = 0;
  Time window = 0;
  Time slice = 0;  // traced run: run_until step, one counter snapshot each
  int variants = 1;
};

/// The named workloads, in declaration order (the smoke workload last).
[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Host wall seconds of the three construction phases.
struct SetupTimes {
  double build_s = 0;    // topo: fabric construction
  double connect_s = 0;  // nic: QP connects (and the demuxes they report to)
  double start_s = 0;    // app: traffic generators, lock table, fault schedule
  [[nodiscard]] double total() const { return build_s + connect_s + start_s; }
};

/// What a round's application layer reports once the run has ended.
struct AppOutcome {
  rocelab::PercentileSampler latency_us;  // Pingmesh RTT or lock-acquire latency
  std::int64_t attempted = 0;             // ops the apps issued
  std::int64_t failed = 0;                // probes failed, QP errors, torn completions
  double cas_fail_frac = 0;               // contended CAS / CAS attempts (lock table)
  double torn_read_frac = 0;              // torn optimistic reads / reads (lock table)
  std::vector<std::string> failed_checks; // correctness gates that did not hold
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual rocelab::Fabric& fabric() = 0;
  /// Called at the end of warm-up: latency samples start here.
  virtual void begin_window() {}
  /// Untimed work after the window (the lock table drains here).
  virtual void drain() {}
  [[nodiscard]] virtual AppOutcome finish() = 0;
  /// (source, destination) server addresses of the workload's QPs.
  [[nodiscard]] const std::vector<std::pair<rocelab::Ipv4Addr, rocelab::Ipv4Addr>>& flows()
      const {
    return flows_;
  }
  /// Transport config of the workload's bulk QPs.
  [[nodiscard]] const rocelab::QpConfig& qp_config() const { return qp_; }

 protected:
  std::vector<std::pair<rocelab::Ipv4Addr, rocelab::Ipv4Addr>> flows_;
  rocelab::QpConfig qp_;
};

/// Build variant `variant` of `spec`'s input for `seed` at `shards`, timing each construction phase into
/// `times` and, when `tracer` is set, recording a span per phase and per QP
/// connect batch.
[[nodiscard]] std::unique_ptr<Workload> build_workload(const WorkloadSpec& spec,
                                                       std::uint64_t seed, int variant,
                                                       int shards, SetupTimes* times,
                                                       Tracer* tracer);

}  // namespace perfbench
