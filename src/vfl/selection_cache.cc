#include "vfl/selection_cache.h"

#include <algorithm>
#include <utility>

namespace vfps::vfl {

void SelectionCache::Rekey(const ProtocolShape& shape, size_t group,
                           size_t num_units) {
  // Unbound, the table is empty: binding the default key changes nothing.
  if (shape == shape_ && group == group_ && num_units == units_.size()) return;
  shape_ = shape;
  group_ = group;
  units_.assign(num_units, CachedUnit{});
}

void SelectionCache::Absorb(size_t u, CachedUnit&& produced) {
  if (u >= units_.size()) return;
  const bool staged =
      std::any_of(produced.shards.begin(), produced.shards.end(),
                  [](const auto& parties) { return !parties.empty(); });
  if (!staged) return;
  CachedUnit& unit = units_[u];
  if (unit.nominated != produced.nominated) {
    unit = CachedUnit{};
    unit.nominated = std::move(produced.nominated);
  }
  if (unit.shards.size() < produced.shards.size()) {
    unit.shards.resize(produced.shards.size());
  }
  for (size_t s = 0; s < produced.shards.size(); ++s) {
    for (auto& [party, state] : produced.shards[s]) {
      PartyUnitState& dst = unit.shards[s][party];
      if (state.values != nullptr) {
        dst = std::move(state);
      } else {
        if (state.order.size() > dst.order.size()) {
          dst.order = std::move(state.order);
        }
        dst.streamed_depth = std::max(dst.streamed_depth, state.streamed_depth);
      }
    }
  }
}

}  // namespace vfps::vfl
