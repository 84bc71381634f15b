#ifndef PERFBENCH_SPAN_LAYERS_H_
#define PERFBENCH_SPAN_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Per-span-name wall time of one traced job, in seconds.
struct SpanTimes {
  /// Σ duration of the spans with this name.
  std::map<std::string, double> total_s;
  /// Σ self time: each span's duration minus the part of its interval that
  /// its child spans (on any thread) cover.
  std::map<std::string, double> self_s;
  /// Duration of every span with this name, in recording order.
  std::map<std::string, std::vector<double>> durations_s;

  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
};

/// Fold a tracer snapshot into per-name totals and self times. Instant
/// events are ignored; a span whose parent is not in `events` counts as a
/// root.
SpanTimes AnalyzeSpans(const std::vector<vfps::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LAYERS_H_
