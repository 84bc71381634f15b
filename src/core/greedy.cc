#include "core/greedy.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/macros.h"

namespace vfps::core {

GreedyResult GreedyMaximize(const KnnSubmodularFunction& f, size_t target) {
  GreedyResult result;
  const size_t p = f.ground_set_size();
  target = std::min(target, p);
  KnnSubmodularFunction::Incremental state(&f);
  std::vector<bool> chosen(p, false);
  for (size_t round = 0; round < target; ++round) {
    double best_gain = -1.0;
    size_t best = p;
    for (size_t candidate = 0; candidate < p; ++candidate) {
      if (chosen[candidate]) continue;
      const double gain = state.GainOf(candidate);
      ++result.evaluations;
      if (gain > best_gain) {
        best_gain = gain;
        best = candidate;
      }
    }
    chosen[best] = true;
    state.Add(best);
    result.selected.push_back(best);
    result.gains.push_back(best_gain);
  }
  result.value = state.value();
  return result;
}

GreedyResult LazyGreedyMaximize(const KnnSubmodularFunction& f, size_t target,
                                const GreedyCheckpoint* resume,
                                GreedyCheckpoint* checkpoint_out) {
  GreedyResult result;
  const size_t p = f.ground_set_size();
  target = std::min(target, p);

  // `chosen` marks the resumed prefix. A checkpoint shaped for another ground
  // set, or whose prefix names a position outside it or twice, is untrusted:
  // cold start (callers validate compatibility upstream).
  std::vector<bool> chosen(p, false);
  bool fits = resume != nullptr && resume->best.size() == p &&
              resume->bounds.size() == p && resume->bound_rounds.size() == p &&
              resume->selected.size() == resume->gains.size();
  for (size_t i = 0; fits && i < resume->selected.size(); ++i) {
    const size_t s = resume->selected[i];
    fits = s < p && !chosen[s];
    if (fits) chosen[s] = true;
  }
  if (!fits) {
    resume = nullptr;
    chosen.assign(p, false);
  }

  // Target inside the resumed prefix: the answer is the truncated prefix
  // (greedy is prefix-monotone). Replay it to rebuild exact accumulators.
  if (resume != nullptr && resume->selected.size() >= target) {
    KnnSubmodularFunction::Incremental replay(&f);
    result.selected.assign(resume->selected.begin(),
                           resume->selected.begin() + target);
    result.gains.assign(resume->gains.begin(), resume->gains.begin() + target);
    for (size_t s : result.selected) replay.Add(s);
    result.value = replay.value();
    if (checkpoint_out != nullptr) {
      checkpoint_out->selected = result.selected;
      checkpoint_out->gains = result.gains;
      checkpoint_out->best = replay.best();
      checkpoint_out->value = replay.value();
      // The resumed bounds were computed against the LONGER prefix, so they
      // may undercut gains w.r.t. the truncated one — publish vacuous bounds
      // that force re-evaluation instead.
      checkpoint_out->bounds.assign(p, std::numeric_limits<double>::infinity());
      checkpoint_out->bound_rounds.assign(p, 0);
    }
    return result;
  }

  KnnSubmodularFunction::Incremental state =
      resume != nullptr
          ? KnnSubmodularFunction::Incremental(&f, resume->best, resume->value)
          : KnnSubmodularFunction::Incremental(&f);

  // (stale upper bound, -index) max-heap; smaller index wins gain ties to
  // match plain greedy's tie-break.
  struct Entry {
    double bound;
    size_t index;
    size_t round_evaluated;
    bool operator<(const Entry& o) const {
      if (bound != o.bound) return bound < o.bound;
      return index > o.index;
    }
  };
  std::priority_queue<Entry> heap;
  if (resume != nullptr) {
    // Reconstruct the heap exactly as it stood at the checkpointed pick
    // boundary; the continued scan is then indistinguishable from the
    // uninterrupted one.
    result.selected = resume->selected;
    result.gains = resume->gains;
    for (size_t candidate = 0; candidate < p; ++candidate) {
      if (chosen[candidate]) continue;
      heap.push({resume->bounds[candidate], candidate,
                 resume->bound_rounds[candidate]});
    }
  } else {
    for (size_t candidate = 0; candidate < p; ++candidate) {
      const double gain = state.GainOf(candidate);
      ++result.evaluations;
      // The state is untouched until the first pick, so these initial bounds
      // are already exact for round 1.
      heap.push({gain, candidate, 1});
    }
  }

  for (size_t round = result.selected.size() + 1; round <= target; ++round) {
    for (;;) {
      Entry top = heap.top();
      heap.pop();
      if (top.round_evaluated == round) {
        // Fresh bound on top: by submodularity every other bound is an upper
        // bound of a smaller true gain, so this is the argmax.
        state.Add(top.index);
        result.selected.push_back(top.index);
        result.gains.push_back(top.bound);
        break;
      }
      top.bound = state.GainOf(top.index);
      ++result.evaluations;
      top.round_evaluated = round;
      heap.push(top);
    }
  }
  result.value = state.value();

  if (checkpoint_out != nullptr) {
    checkpoint_out->selected = result.selected;
    checkpoint_out->gains = result.gains;
    checkpoint_out->best = state.best();
    checkpoint_out->value = state.value();
    checkpoint_out->bounds.assign(p, 0.0);
    checkpoint_out->bound_rounds.assign(p, 0);
    while (!heap.empty()) {
      const Entry e = heap.top();
      heap.pop();
      checkpoint_out->bounds[e.index] = e.bound;
      checkpoint_out->bound_rounds[e.index] = e.round_evaluated;
    }
  }
  return result;
}

Result<GreedyResult> ExhaustiveMaximize(const KnnSubmodularFunction& f,
                                        size_t target) {
  const size_t p = f.ground_set_size();
  VFPS_CHECK_ARG(p <= 20, "exhaustive: ground set too large (P > 20)");
  target = std::min(target, p);
  GreedyResult result;
  double best_value = -1.0;
  std::vector<size_t> subset;
  for (uint32_t mask = 0; mask < (1u << p); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != target) continue;
    subset.clear();
    for (size_t i = 0; i < p; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    const double value = f.Value(subset);
    ++result.evaluations;
    if (value > best_value) {
      best_value = value;
      result.selected = subset;
    }
  }
  result.value = best_value;
  result.gains.assign(result.selected.size(), 0.0);
  return result;
}

}  // namespace vfps::core
