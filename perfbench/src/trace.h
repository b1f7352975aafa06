// Spans for the traced benchmark run. The benchmark records a span around
// each of its own calls into the library (fabric build, each QP connect
// batch, app start, every run_until slice), keeps them in memory, and
// writes them once at the end as Chrome trace-event JSON (viewable in
// Perfetto). Spans inside the library are out of scope here.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, double>>;
  struct Span {
    std::string name;
    double start_us = 0;
    double dur_us = 0;
    Args args;
  };

  /// Microseconds of host wall time since the tracer was created.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  void add(std::string name, double start_us, double end_us, Args args = {}) {
    spans_.push_back(Span{std::move(name), start_us, end_us - start_us, std::move(args)});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as a complete ("X") trace event. False on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// `s` as the body of a JSON string: quotes and backslashes escaped,
/// control characters dropped.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Runs `fn` and returns the host wall seconds it took, recording a span
/// named `name` when `tracer` is set.
template <class Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  const double start_us = tracer != nullptr ? tracer->now_us() : 0.0;
  fn();
  if (tracer != nullptr) tracer->add(name, start_us, tracer->now_us());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
