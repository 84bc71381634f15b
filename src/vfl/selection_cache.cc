#include "vfl/selection_cache.h"

#include <algorithm>
#include <utility>

namespace vfps::vfl {

void SelectionCache::Rekey(const Key& key) {
  if (bound_ && key == key_) return;
  key_ = key;
  bound_ = true;
  units_.assign(key.num_units, CachedUnit{});
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
      if (!state.values.empty()) {
        dst = std::move(state);
      } else {
        dst.streamed_depth = std::max(dst.streamed_depth, state.streamed_depth);
      }
    }
  }
}

void SelectionCache::Clear() {
  bound_ = false;
  key_ = Key{};
  units_.clear();
}

size_t SelectionCache::CachedContributions() const {
  size_t n = 0;
  for (const CachedUnit& unit : units_) {
    for (const auto& parties : unit.shards) n += parties.size();
  }
  return n;
}

}  // namespace vfps::vfl
