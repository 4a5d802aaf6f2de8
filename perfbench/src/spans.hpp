#pragma once

// The benchmark's own tracing: spans the benchmark records around each
// call it makes into an hrf layer. hrf's util/trace stays off in every
// workload; these spans live only in benchmark memory and are reduced to
// per-layer self times when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch on the steady clock.
std::int64_t now_ns();
/// The steady-clock time point `ns` nanoseconds after that epoch.
Clock::time_point time_at(std::int64_t ns);

/// One span. `name` must point at a string literal. Ids are unique within
/// one run; parent 0 marks a root span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Span storage for one thread; merged into one vector when the run ends.
/// Disabled logs drop every record, which is how the untraced run pays
/// nothing for the instrumentation.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::size_t reserve = 0);

  bool enabled() const { return enabled_; }
  void add(std::uint64_t id, std::uint64_t parent, const char* name, std::int64_t start_ns,
           std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of each span, in the order given: its duration minus the
/// part of its interval that its direct children cover (children clipped
/// to the parent, overlapping children counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per span name: number of spans, summed duration and summed self time.
struct LayerTime {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace perfbench
