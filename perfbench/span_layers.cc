#include "span_layers.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

double Lookup(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Length of the union of [begin, end) intervals, each clipped to [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, hi);
    if (end <= begin) continue;
    covered += end - begin;
    cursor = end;
  }
  return covered;
}

}  // namespace

double SpanTimes::Total(const std::string& name) const {
  return Lookup(total_s, name);
}

double SpanTimes::Self(const std::string& name) const {
  return Lookup(self_s, name);
}

SpanTimes AnalyzeSpans(const std::vector<vfps::obs::TraceEvent>& events) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < events.size(); ++i) {
    if (!events[i].instant) index[events[i].span_id] = i;
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      events.size());
  for (const auto& e : events) {
    if (e.instant) continue;
    const auto parent = index.find(e.parent_span_id);
    if (parent == index.end()) continue;
    children[parent->second].emplace_back(e.start_ns, e.start_ns + e.dur_ns);
  }
  SpanTimes out;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.instant) continue;
    const uint64_t end = e.start_ns + e.dur_ns;
    const uint64_t self =
        e.dur_ns - CoveredNs(std::move(children[i]), e.start_ns, end);
    out.total_s[e.name] += e.dur_ns * 1e-9;
    out.self_s[e.name] += self * 1e-9;
    out.durations_s[e.name].push_back(e.dur_ns * 1e-9);
  }
  return out;
}

}  // namespace perfbench
