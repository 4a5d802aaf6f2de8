#include "spans.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {
const Clock::time_point& epoch() {
  static const Clock::time_point t = Clock::now();
  return t;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch()).count();
}

Clock::time_point time_at(std::int64_t ns) { return epoch() + std::chrono::nanoseconds(ns); }

SpanLog::SpanLog(bool enabled, std::size_t reserve) : enabled_(enabled) {
  if (enabled_) spans_.reserve(reserve);
}

void SpanLog::add(std::uint64_t id, std::uint64_t parent, const char* name,
                  std::int64_t start_ns, std::int64_t end_ns) {
  if (enabled_) spans_.push_back(Span{id, parent, name, start_ns, end_ns});
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Children intervals grouped by parent position, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace perfbench
