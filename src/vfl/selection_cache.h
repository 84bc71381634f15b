#ifndef VFPS_VFL_SELECTION_CACHE_H_
#define VFPS_VFL_SELECTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "he/backend.h"
#include "vfl/protocol_shape.h"

namespace vfps::vfl {

/// \brief One participant's cached contribution to one row shard of one
/// protocol unit (a query, or a slot-batched group of queries).
///
/// Privacy framing: `values` (and `order`) are the party's OWN plaintext
/// partial distances — in a real deployment each party would hold its slice
/// of this cache locally, exactly like the live protocol state it mirrors.
/// `cipher` is the ciphertext the aggregation server already received; the
/// server caching what it was sent leaks nothing new. The leader still only
/// ever sees decrypted aggregates, so the cache does not change who learns
/// what — it only remembers it across membership changes.
struct PartyUnitState {
  /// BASE mode: the packed partial-distance vector this party encrypted for
  /// the shard (the group's per-query slices, back to back). Top-k modes:
  /// the party's scores over the shard's ranking items — the shard's
  /// candidate rows, query row excluded, in ascending pseudo-ID order —
  /// shared with the rankings built from them, so reuse copies nothing.
  /// nullptr for an entry that only extends `order`/`streamed_depth`.
  std::shared_ptr<const std::vector<double>> values;
  /// Top-k modes: the ranked prefix of the party's sub-ranking that the
  /// merge read (item indices ascending by score, ties by index, i.e. by
  /// pseudo ID), as deep as the deepest round of this unit. A repair starts
  /// its ranking from it and sorts past it only if its merge reads deeper.
  std::vector<uint32_t> order;
  /// BASE mode: the ciphertext of `values` as held by the aggregation
  /// server, staged with `values` when the upload arrives, so a BASE entry
  /// whose values cover a round's rows always carries it. On repair the
  /// server re-sums cached ciphertexts instead of asking survivors to
  /// recompute, re-encrypt, and resend. Empty in the top-k modes, whose
  /// rounds encrypt the candidates' values afresh.
  he::EncryptedVector cipher;
  /// Top-k modes: how many ranking rows the server has already streamed from
  /// this party; a repair run only streams the delta beyond this depth.
  size_t streamed_depth = 0;
};

/// \brief Contributions cached for one protocol unit: per row shard, keyed
/// by participant, plus the candidate rows they were computed over.
struct CachedUnit {
  /// The pre-filter nominations of the round that produced the entries: one
  /// ascending row list per query of the unit, empty with the pre-filter
  /// off. Nominations are a union over the active parties, so they can move
  /// with membership; entries are reused only by a round with exactly these
  /// candidate rows (comparing counts alone could splice in values of other
  /// rows).
  std::vector<std::vector<uint64_t>> nominated;
  /// shards[s]: the party entries of row shard s.
  std::vector<std::map<size_t, PartyUnitState>> shards;
};

/// \brief Participant-keyed contribution cache that survives membership
/// changes — the state store behind incremental selection repair.
///
/// The cache is keyed by the run's ProtocolShape (the one definition of the
/// shape) plus the query group and unit count the run resolved from it: any
/// difference on re-keying drops every entry, the same key keeps them.
/// Within a matching key, unit u of any run over the same candidate rows
/// computes identical per-party, per-shard contributions regardless of which
/// other participants are active (partial distances and sub-rankings are
/// party-local), which is what makes reuse sound:
///
///   - on leave, survivors' cached values/ciphers are reused verbatim and
///     only the aggregation over the new membership is redone;
///   - on join, only the newcomer computes fresh contributions and the
///     cached remainder is spliced in around them.
///
/// Thread-safety: Rekey/Absorb are driven from one thread between runs;
/// during a run, query tasks only READ the cache (each task touches its own
/// unit) and write to task-local staging absorbed afterwards in unit order,
/// so the contents are independent of the thread count.
class SelectionCache {
 public:
  /// Bind the cache to a run: its shape, its resolved query group and its
  /// unit count. A different binding (or the first call) clears all entries
  /// and sizes the unit table; the same binding is a no-op that keeps every
  /// cached contribution.
  void Rekey(const ProtocolShape& shape, size_t group, size_t num_units);

  /// The cached state of unit `u`, or nullptr when unbound / out of range.
  const CachedUnit* unit(size_t u) const {
    return u < units_.size() ? &units_[u] : nullptr;
  }

  /// Fold one unit's freshly produced contributions in. Entries carrying
  /// values replace the cached party state; value-less entries come from a
  /// cached party that a round read deeper, and only lengthen its `order`
  /// prefix and advance its `streamed_depth`.
  /// Entries staged over other candidate rows than the cached ones replace
  /// the whole unit: the old entries can never match a round again.
  void Absorb(size_t u, CachedUnit&& produced);

 private:
  ProtocolShape shape_;
  size_t group_ = 0;
  std::vector<CachedUnit> units_;
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_SELECTION_CACHE_H_
