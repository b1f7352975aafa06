// rocelab benchmark driver: host cost per simulated millisecond on fixed
// fabric workloads, with per-layer counts and a traced layer-cost run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--revision REV] [--spans PATH]
//
// Each round builds the workload from scratch (timed as set-up), runs an
// untimed warm-up, then times a fixed simulated window with
// Simulator::run_until, reads the per-layer counters, runs the workload's
// correctness checks and takes the determinism digest. Rounds repeat until
// --seconds of host time have passed; host-time metrics are medians over
// rounds, simulated metrics are identical in every round (the digest gate
// enforces it).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a traced run (spans around every library call, a counter snapshot
// per simulated slice, isolated layer timings). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/counters.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/monitor/digest.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace rocelab;

/// perf_gate's pinned digest: its workload at seed 0 over a 10 ms window.
constexpr const char* kPerfGateDigest = "7e3131fbe2867385";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
  std::string spans_path;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--revision REV] [--spans PATH]\n",
               msg.c_str());
  std::exit(2);
}

/// Whole-string unsigned decimal parse; anything else names the flag and
/// exits 2 (no atoi-style silent zero).
std::uint64_t parse_uint(const char* flag, const std::string& text, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v > max) {
    usage_error(std::string(flag) + ": expected an integer in [0, " + std::to_string(max) +
                "], got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace" &&
        flag != "--revision" && flag != "--spans") {
      usage_error("unknown flag '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (find_workload(value) == nullptr) usage_error("--workload: unknown workload '" + value + "'");
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint("--seed", value, UINT64_MAX);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(parse_uint("--seconds", value, 600));
      if (a.seconds < 1) usage_error("--seconds: must be at least 1");
    } else if (flag == "--trace") {
      a.trace = parse_uint("--trace", value, 1) == 1;
    } else if (flag == "--revision") {
      a.revision = value;
    } else {
      a.spans_path = value;
    }
  }
  if (!have_workload) usage_error("--workload: required");
  return a;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries the parent's high-water mark across fork+exec,
/// so ru_maxrss would report the launcher's footprint.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  PercentileSampler s;
  for (const std::int64_t x : v) s.add(static_cast<double>(x));
  return s.percentile(p);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// --- one round ---------------------------------------------------------------

struct Round {
  SetupTimes setup;
  double cpu_s = 0;    // host CPU over the timed window
  double wall_s = 0;   // host wall over the timed window
  LayerCounts window;  // counter deltas over the timed window
  std::uint64_t digest = 0;
  AppOutcome app;
  // Traced rounds only.
  std::vector<std::int64_t> heap_samples;
  std::vector<std::int64_t> mmu_samples;
  LayerCosts costs;
};

Round run_round(const WorkloadSpec& spec, std::uint64_t seed, int variant, int shards,
                Tracer* tracer) {
  Round r;
  std::unique_ptr<Workload> w = build_workload(spec, seed, variant, shards, &r.setup, tracer);
  Simulator& sim = w->fabric().sim();
  const CounterReader reader(w->fabric());
  timed(tracer, "sim.warmup", [&] { sim.run_until(spec.warmup); });
  w->begin_window();
  const Time end = spec.warmup + spec.window;
  const LayerCounts start = reader.read();
  const double cpu0 = process_cpu_s(), wall0 = wall_s();
  if (tracer == nullptr) {
    sim.run_until(end);
  } else {
    LayerCounts prev = start;
    for (Time t = spec.warmup; t < end;) {
      t = std::min(t + spec.slice, end);
      const double s0 = tracer->now_us();
      sim.run_until(t);
      const double s1 = tracer->now_us();
      // The snapshot is outside the slice's span: it is tracing cost.
      const LayerCounts now = reader.read();
      const LayerCounts d = now.minus(prev);
      prev = now;
      r.heap_samples.push_back(reader.queued_entries());
      for (const std::int64_t used : reader.mmu_shared_used()) r.mmu_samples.push_back(used);
      tracer->add("sim.run_until", s0, s1,
                  {{"sim_us", to_microseconds(t)},
                   {"sim.events", static_cast<double>(d.events)},
                   {"link.frames", static_cast<double>(d.frames)},
                   {"switch.frames_forwarded", static_cast<double>(d.sw_frames)},
                   {"nic.data_pkts", static_cast<double>(d.data_pkts)},
                   {"app.msgs_completed",
                    static_cast<double>(d.messages_completed + d.atomic_completions)}});
    }
  }
  r.cpu_s = process_cpu_s() - cpu0;
  r.wall_s = wall_s() - wall0;
  r.window = reader.read().minus(start);
  timed(tracer, "app.drain", [&] { w->drain(); });
  r.app = w->finish();
  r.digest = counters_digest(w->fabric());
  if (tracer != nullptr) {
    ProbeShape shape;
    shape.heap_depth = static_cast<std::int64_t>(percentile(r.heap_samples, 50));
    shape.cnps_per_data = ratio(static_cast<double>(r.window.cnps),
                                static_cast<double>(r.window.data_pkts));
    shape.acks_per_data = ratio(static_cast<double>(r.window.acks),
                                static_cast<double>(r.window.data_pkts));
    timed(tracer, "probe.layer_costs", [&] { r.costs = measure_layer_costs(*w, shape); });
  }
  timed(tracer, "topo.teardown", [&] { w.reset(); });
  return r;
}

// --- result assembly ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t latency_samples = 0;  // behind sim_p50_us / sim_p99_us
};

void add_check(Result& res, bool ok, const std::string& what) {
  if (!ok) res.failed_checks.push_back(what);
}

/// Every round of one configuration must reproduce the first round's
/// digest, and pass the workload's own checks.
void check_rounds(Result& res, const std::vector<Round>& rounds, const std::string& label) {
  for (const Round& r : rounds) {
    add_check(res, r.digest == rounds.front().digest,
              "counters_digest identical across " + label + " repeats");
    for (const std::string& c : r.app.failed_checks) add_check(res, false, c);
    res.attempted += r.app.attempted;
    res.failed += r.app.failed;
  }
}

/// Median of `fn(round)` over `rounds`.
template <class Fn>
double median_over(const std::vector<Round>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(fn(r));
  return median(std::move(v));
}

double window_ms(const WorkloadSpec& spec) { return to_seconds(spec.window) * 1e3; }

/// `rounds[v]` holds variant v's rounds. Host times are medians over every
/// round; simulated metrics pool each variant's (identical) rounds once.
std::vector<Metric> end_to_end_metrics(Result& res,
                                       const std::vector<std::vector<Round>>& rounds,
                                       const WorkloadSpec& spec) {
  std::vector<Round> all;
  std::int64_t delivered = 0;
  PercentileSampler lat;
  for (const std::vector<Round>& variant : rounds) {
    all.insert(all.end(), variant.begin(), variant.end());
    const Round& r = variant.front();
    // Receiver bytes completed: SEND/WRITE payload delivered in order,
    // plus the 8-byte word every completed atomic returns.
    delivered += r.window.bytes_received + 8 * r.window.atomic_completions;
    lat.merge(r.app.latency_us);
  }
  res.latency_samples = static_cast<std::int64_t>(lat.count());
  const double ms = window_ms(spec);
  const double sim_s = to_seconds(spec.window) * static_cast<double>(rounds.size());
  const bool correct = res.failed_checks.empty();
  const double ok_frac =
      correct ? 1.0 - ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted))
              : 0.0;
  return {
      {"cpu_s_per_sim_ms", median_over(all, [ms](const Round& r) { return r.cpu_s / ms; }),
       "s/ms"},
      {"wall_s_per_sim_ms", median_over(all, [ms](const Round& r) { return r.wall_s / ms; }),
       "s/ms"},
      {"setup_s", median_over(all, [](const Round& r) { return r.setup.total(); }), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"sim_goodput_gbps", static_cast<double>(delivered) * 8.0 / sim_s / 1e9, "Gb/s"},
      {"sim_p50_us", lat.empty() ? 0.0 : lat.percentile(50), "us"},
      {"sim_p99_us", lat.empty() ? 0.0 : lat.percentile(99), "us"},
      {"ops_ok_frac", ok_frac, "frac"},
  };
}

struct TracedRuns {
  std::vector<Round> untraced;     // at the workload's shard count
  std::vector<Round> traced;       // same, traced
  std::vector<Round> single_shard; // sharded workloads only: the 1-shard reference
};

std::vector<Metric> per_layer_metrics(const TracedRuns& runs) {
  const Round& t = runs.traced.front();
  const LayerCounts& w = t.window;
  const LayerCosts& c = t.costs;
  const auto cpu = [](const Round& r) { return r.cpu_s; };
  const auto wall = [](const Round& r) { return r.wall_s; };
  const double cpu_s = median_over(runs.untraced, cpu);
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };

  double shard_max = 0, shard_sum = 0;
  for (const std::int64_t e : w.shard_events) {
    shard_max = std::max(shard_max, d(e));
    shard_sum += d(e);
  }
  const double shard_mean = shard_sum / static_cast<double>(w.shard_events.size());
  // One shard has nothing to compare against: it is its own reference.
  double speedup = 1.0, invariant = 1.0;
  if (!runs.single_shard.empty()) {
    speedup = ratio(median_over(runs.single_shard, wall), median_over(runs.untraced, wall));
    invariant = runs.single_shard.front().digest == runs.untraced.front().digest ? 1.0 : 0.0;
  }

  // Attribution: isolated cost x op count / run CPU. A route lookup hashes
  // the flow once, so the switch keeps only route time beyond the hash.
  const double cpu_ns = cpu_s * 1e9;
  const double sim_share = ratio(c.replay_ns * d(w.events), cpu_ns);
  const double switch_share = ratio(
      std::max(c.route_ns - c.hash_ns, 0.0) * d(w.sw_routed) + c.mmu_ns * d(w.sw_admitted),
      cpu_ns);
  const double net_share = ratio(c.hash_ns * d(w.sw_routed), cpu_ns);
  const double nic_share = ratio(c.dcqcn_ns * d(w.data_pkts + w.cnps) +
                                     c.recovery_ns * d(w.data_pkts + w.acks),
                                 cpu_ns);
  const double unattributed = 1.0 - sim_share - switch_share - net_share - nic_share;

  const PercentileSampler& lat = t.app.latency_us;
  return {
      {"sim.events", d(w.events), "count"},
      {"sim.events_per_cpu_s", ratio(d(w.events), cpu_s), "1/s"},
      {"sim.heap_entries_p99", percentile(t.heap_samples, 99), "count"},
      {"sim.cancel_frac", ratio(d(w.scheduled - w.events - w.pending), d(w.scheduled)), "frac"},
      {"sim.windows", d(w.windows), "count"},
      {"sim.events_per_window", ratio(d(w.events), d(std::max<std::int64_t>(w.windows, 1))),
       "count"},
      {"sim.cross_messages", d(w.cross_messages), "count"},
      {"sim.shard_imbalance", ratio(shard_max, shard_mean), "ratio"},
      {"sim.shard_speedup", speedup, "ratio"},
      {"sim.shard_invariant", invariant, "bool"},
      {"sim.replay_ns", c.replay_ns, "ns"},
      {"link.frames", d(w.frames), "count"},
      {"link.bytes", d(w.bytes), "B"},
      {"link.pause_frames", d(w.pause_frames), "count"},
      {"link.paused_us", to_microseconds(w.paused_ps), "us"},
      {"link.drops", d(w.drops), "count"},
      {"switch.frames_forwarded", d(w.sw_frames), "count"},
      {"switch.flow_cache_hit_frac", ratio(d(w.flow_cache_hits), d(w.sw_routed)), "frac"},
      {"switch.shared_used_p99", percentile(t.mmu_samples, 99), "B"},
      {"switch.floods", d(w.floods), "count"},
      {"switch.route_ns", c.route_ns, "ns"},
      {"switch.mmu_ns", c.mmu_ns, "ns"},
      {"net.hash_ns", c.hash_ns, "ns"},
      {"nic.data_pkts", d(w.data_pkts), "count"},
      {"nic.retx_frac", ratio(d(w.retx), d(w.data_pkts)), "frac"},
      {"nic.acks_per_data", ratio(d(w.acks), d(w.data_pkts)), "ratio"},
      {"nic.cnps", d(w.cnps), "count"},
      {"nic.timeouts", d(w.timeouts), "count"},
      {"nic.selrep_retx", d(w.selrep_retx), "count"},
      {"nic.atomic_reissues", d(w.atomic_reissues), "count"},
      {"nic.dup_requests", d(w.dup_requests), "count"},
      {"nic.dcqcn_ns", c.dcqcn_ns, "ns"},
      {"nic.recovery_ns", c.recovery_ns, "ns"},
      {"app.msgs_completed", d(w.messages_completed + w.atomic_completions), "count"},
      {"app.latency_samples", static_cast<double>(lat.count()), "count"},
      {"app.cas_fail_frac", t.app.cas_fail_frac, "frac"},
      {"app.torn_read_frac", t.app.torn_read_frac, "frac"},
      {"topo.build_s", median_over(runs.untraced, [](const Round& r) { return r.setup.build_s; }),
       "s"},
      {"nic.connect_s",
       median_over(runs.untraced, [](const Round& r) { return r.setup.connect_s; }), "s"},
      {"app.start_s", median_over(runs.untraced, [](const Round& r) { return r.setup.start_s; }),
       "s"},
      {"sim.cpu_share", sim_share, "frac"},
      {"switch.cpu_share", switch_share, "frac"},
      {"net.cpu_share", net_share, "frac"},
      {"nic.cpu_share", nic_share, "frac"},
      {"unattributed.cpu_share", unattributed, "frac"},
      {"trace.overhead_frac", ratio(median_over(runs.traced, cpu), cpu_s) - 1.0, "frac"},
  };
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(const Args& args, const WorkloadSpec& spec, int shards, const Result& res,
                  std::uint64_t digest) {
  for (const std::string& c : res.failed_checks) {
    std::fprintf(stderr, "perfbench: correctness check FAILED: %s\n", c.c_str());
  }
  std::printf("workload %s  seed %llu  shards %d  window %.1f ms (after %.1f ms warm-up)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), shards,
              to_seconds(spec.window) * 1e3, to_seconds(spec.warmup) * 1e3);
  for (const Metric& m : res.metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // The host fingerprint travels with every result.
  std::printf(
      "{\"host\": {\"cores\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"revision\": \"%s\"}, \"workload\": \"%s\", \"seed\": %llu, "
      "\"shards\": %d, \"trace\": %d, \"latency_samples\": %lld, \"counters_digest\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(compiler()).c_str(), PERFBENCH_BUILD_TYPE, json_escape(args.revision).c_str(),
      spec.name.c_str(), static_cast<unsigned long long>(args.seed), shards, args.trace ? 1 : 0,
      static_cast<long long>(res.latency_samples), digest_hex(digest).c_str());

  const bool correct = res.failed_checks.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                static_cast<long long>(std::max<std::int64_t>(res.attempted, 1)),
                static_cast<long long>(correct ? res.failed : std::max<std::int64_t>(res.attempted, 1)));
  out += buf;
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int shards = std::min(spec.shards, cores);
  Result res;

  if (spec.name == "clos_mixed") {
    // Same program input as perf_gate: seed 0, 10 ms, its pinned digest.
    WorkloadSpec gate = spec;
    gate.warmup = 0;
    gate.window = milliseconds(10);
    const Round g = run_round(gate, /*seed=*/0, /*variant=*/0, 1, nullptr);
    add_check(res, digest_hex(g.digest) == kPerfGateDigest,
              std::string("seed 0 over 10 ms reproduces perf_gate digest ") + kPerfGateDigest +
                  " (got " + digest_hex(g.digest) + ")");
  }

  // Every configuration runs at least twice, so the digest gate compares.
  constexpr int kMinRepeats = 2;
  constexpr int kMaxRounds = 400;
  const double deadline = wall_s() + args.seconds;
  std::uint64_t digest = 0;
  if (!args.trace) {
    // Cycle through the variants; past the minimum, stop at the deadline.
    const int variants = spec.variants;
    std::vector<std::vector<Round>> rounds(static_cast<std::size_t>(variants));
    for (int n = 0; n < kMinRepeats * variants || (wall_s() < deadline && n < kMaxRounds); ++n) {
      rounds[static_cast<std::size_t>(n % variants)].push_back(
          run_round(spec, args.seed, n % variants, shards, nullptr));
    }
    for (const std::vector<Round>& variant : rounds) check_rounds(res, variant, "untraced");
    res.metrics = end_to_end_metrics(res, rounds, spec);
    digest = rounds.front().front().digest;
  } else {
    // Variant 0 only. Alternate untraced and traced rounds (plus the
    // 1-shard reference for a sharded workload) so host drift hits each
    // side alike.
    TracedRuns runs;
    Tracer tracer;
    for (int cycle = 0; cycle < kMinRepeats || (wall_s() < deadline && cycle < kMaxRounds);
         ++cycle) {
      runs.untraced.push_back(run_round(spec, args.seed, 0, shards, nullptr));
      // Spans are kept for the first traced round only.
      Tracer scratch;
      runs.traced.push_back(
          run_round(spec, args.seed, 0, shards, cycle == 0 ? &tracer : &scratch));
      if (shards > 1) runs.single_shard.push_back(run_round(spec, args.seed, 0, 1, nullptr));
    }
    check_rounds(res, runs.untraced, "untraced");
    check_rounds(res, runs.traced, "traced");
    if (!runs.single_shard.empty()) check_rounds(res, runs.single_shard, "1-shard");
    if (shards == 1) {
      add_check(res, runs.traced.front().digest == runs.untraced.front().digest,
                "tracing leaves the counters_digest unchanged");
    }
    res.metrics = per_layer_metrics(runs);
    res.latency_samples = static_cast<std::int64_t>(runs.traced.front().app.latency_us.count());
    digest = runs.untraced.front().digest;
    if (!args.spans_path.empty() && !tracer.write(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  print_result(args, spec, shards, res, digest);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
