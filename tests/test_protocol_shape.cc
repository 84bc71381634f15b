// ProtocolShape: the one definition of "same protocol run" that the
// selection cache and the checkpoint share.
//
// The contracts proven here:
//   1. Table-driven over every field: changing that one field breaks ==,
//      makes the mismatch check name it in the checkpoint message text, and
//      survives Write/Read. The table must cover Fields() exactly.
//   2. The first differing field in wire order is the one named.
//   3. A mode value that names no KnnOracleMode decodes to Corrupt.
//   4. A cache rekeyed with any other shape (the data digest alone
//      included), query group or unit count is cleared; the same key keeps
//      its entries.
//   5. Of() fills every field from the config, the data and the partition,
//      and the digest moves with a training value or the partition.
//   6. A checkpoint carries its shape (shard layout included) through a
//      round trip, and a pre-sharding "VFPSCKP1" file is rejected.

#include "vfl/protocol_shape.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/buffer.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "vfl/fed_knn.h"
#include "vfl/selection_cache.h"

namespace vfps {
namespace {

using vfl::KnnOracleMode;
using vfl::ProtocolShape;

// Every field set away from its default, so a change is never a no-op.
ProtocolShape BaseShape() {
  ProtocolShape shape;
  shape.seed = 42;
  shape.mode = KnnOracleMode::kFagin;
  shape.k = 10;
  shape.num_queries = 64;
  shape.fagin_batch = 32;
  shape.query_group = 2;
  shape.n_rows = 400;
  shape.num_participants = 4;
  shape.shards = 2;
  shape.prefilter_clusters = 8;
  shape.data_digest = 0xDEADBEEFu;
  return shape;
}

struct FieldChange {
  const char* name;  // as the mismatch message names it
  void (*change)(ProtocolShape*);
};

const FieldChange kFieldChanges[] = {
    {"seed", [](ProtocolShape* s) { s->seed += 1; }},
    {"oracle mode",
     [](ProtocolShape* s) { s->mode = KnnOracleMode::kThreshold; }},
    {"k", [](ProtocolShape* s) { s->k += 1; }},
    {"num_queries", [](ProtocolShape* s) { s->num_queries += 1; }},
    {"fagin_batch", [](ProtocolShape* s) { s->fagin_batch += 1; }},
    {"query_group", [](ProtocolShape* s) { s->query_group = 0; }},
    {"n_rows", [](ProtocolShape* s) { s->n_rows += 1; }},
    {"num_participants", [](ProtocolShape* s) { s->num_participants += 1; }},
    {"shards", [](ProtocolShape* s) { s->shards = 4; }},
    {"prefilter_clusters", [](ProtocolShape* s) { s->prefilter_clusters = 0; }},
    {"data_digest", [](ProtocolShape* s) { s->data_digest ^= 1u; }},
};

static_assert(std::size(kFieldChanges) ==
                  std::tuple_size_v<decltype(ProtocolShape::Fields())>,
              "the table must cover every ProtocolShape field");

std::vector<uint8_t> Encode(const ProtocolShape& shape) {
  BinaryWriter w;
  shape.Write(&w);
  return w.TakeBytes();
}

TEST(ProtocolShapeTest, EachFieldBreaksEqualityIsNamedAndRoundTrips) {
  const ProtocolShape base = BaseShape();
  EXPECT_TRUE(base.CheckMatches(base).ok());
  for (const FieldChange& row : kFieldChanges) {
    SCOPED_TRACE(row.name);
    ProtocolShape changed = base;
    row.change(&changed);
    EXPECT_FALSE(changed == base);

    const Status mismatch = base.CheckMatches(changed);
    EXPECT_TRUE(mismatch.IsInvalidArgument()) << mismatch.ToString();
    EXPECT_EQ(mismatch.message().rfind(
                  StrFormat("checkpoint: %s mismatch (checkpoint ", row.name),
                  0),
              0u)
        << mismatch.message();

    const std::vector<uint8_t> bytes = Encode(changed);
    EXPECT_EQ(bytes.size(), 84u);
    BinaryReader r(bytes);
    auto back = ProtocolShape::Read(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, changed);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ProtocolShapeTest, MismatchMessagesKeepTheirText) {
  const ProtocolShape base = BaseShape();
  ProtocolShape run = base;
  run.k = 11;
  run.shards = 4;  // later in wire order than k: k is named
  EXPECT_EQ(base.CheckMatches(run).message(),
            "checkpoint: k mismatch (checkpoint 10 vs run 11)");
  run = base;
  run.mode = KnnOracleMode::kBase;
  EXPECT_EQ(base.CheckMatches(run).message(),
            "checkpoint: oracle mode mismatch (checkpoint 1 vs run 0)");
  run = base;
  run.data_digest = 0x0000ABCDu;
  EXPECT_EQ(base.CheckMatches(run).message(),
            "checkpoint: data_digest mismatch (checkpoint 0xDEADBEEF vs run "
            "0x0000ABCD): the training data or column partition differs");
}

TEST(ProtocolShapeTest, UnknownModeIsCorrupt) {
  const std::vector<uint8_t> valid = Encode(BaseShape());
  // 1 << 32 would wrap onto kBase if the decoder cast before comparing.
  for (int64_t mode : {int64_t{3}, int64_t{-1}, int64_t{1} << 32}) {
    std::vector<uint8_t> bytes = valid;
    std::memcpy(bytes.data() + sizeof(uint64_t), &mode, sizeof(mode));
    BinaryReader r(bytes);
    auto back = ProtocolShape::Read(&r);
    ASSERT_FALSE(back.ok()) << mode;
    EXPECT_TRUE(back.status().IsCorrupt()) << back.status().ToString();
  }
  // A truncated shape is an error too, never a partial value.
  std::vector<uint8_t> truncated(valid.begin(), valid.end() - 1);
  BinaryReader r(truncated);
  EXPECT_FALSE(ProtocolShape::Read(&r).ok());
}

void CacheOneContribution(vfl::SelectionCache* cache) {
  vfl::CachedUnit unit;
  unit.shards.resize(1);
  unit.shards[0][1].values =
      std::make_shared<const std::vector<double>>(std::vector{1.0, 2.0});
  cache->Absorb(0, std::move(unit));
}

TEST(ProtocolShapeTest, CacheIsClearedByAnyOtherKey) {
  const ProtocolShape base = BaseShape();
  // Whether unit 0 still holds what was cached under `base` after a rekey.
  const auto kept_after_rekey = [&](const ProtocolShape& shape, size_t group,
                                    size_t num_units) {
    vfl::SelectionCache cache;
    cache.Rekey(base, /*group=*/2, /*num_units=*/32);
    CacheOneContribution(&cache);
    EXPECT_FALSE(cache.unit(0)->shards.empty());
    cache.Rekey(shape, group, num_units);
    EXPECT_NE(cache.unit(num_units - 1), nullptr);
    EXPECT_EQ(cache.unit(num_units), nullptr);
    return !cache.unit(0)->shards.empty();
  };
  EXPECT_TRUE(kept_after_rekey(base, 2, 32)) << "the same key keeps";
  // Includes the row that changes only the data digest: same N, P and
  // config over other data must not reuse contributions.
  for (const FieldChange& row : kFieldChanges) {
    ProtocolShape changed = base;
    row.change(&changed);
    EXPECT_FALSE(kept_after_rekey(changed, 2, 32)) << row.name;
  }
  EXPECT_FALSE(kept_after_rekey(base, 1, 32)) << "resolved group";
  EXPECT_FALSE(kept_after_rekey(base, 2, 33)) << "unit count";
}

TEST(ProtocolShapeTest, OfReadsConfigDataAndPartition) {
  data::Dataset train(5, 3, 2);
  for (size_t row = 0; row < 5; ++row) {
    for (size_t col = 0; col < 3; ++col) {
      train.Set(row, col, static_cast<double>(row * 3 + col));
    }
  }
  const data::VerticalPartition partition = {{0, 2}, {1}};
  vfl::FedKnnConfig config;
  config.mode = KnnOracleMode::kThreshold;
  config.k = 3;
  config.num_queries = 7;
  config.fagin_batch = 5;
  config.seed = 99;
  config.query_group = 0;
  config.shards = 2;
  config.prefilter_clusters = 6;
  // Membership is not shape.
  config.quarantined = {1};

  const ProtocolShape shape = ProtocolShape::Of(config, train, partition);
  EXPECT_EQ(shape.seed, 99u);
  EXPECT_EQ(shape.mode, KnnOracleMode::kThreshold);
  EXPECT_EQ(shape.k, 3u);
  EXPECT_EQ(shape.num_queries, 7u);
  EXPECT_EQ(shape.fagin_batch, 5u);
  EXPECT_EQ(shape.query_group, 0u);
  EXPECT_EQ(shape.n_rows, 5u);
  EXPECT_EQ(shape.num_participants, 2u);
  EXPECT_EQ(shape.shards, 2u);
  EXPECT_EQ(shape.prefilter_clusters, 6u);
  config.quarantined.clear();
  EXPECT_EQ(ProtocolShape::Of(config, train, partition), shape);

  data::Dataset edited = train;
  edited.Set(4, 2, 0.5);
  EXPECT_NE(ProtocolShape::Of(config, edited, partition).data_digest,
            shape.data_digest);
  const data::VerticalPartition regrouped = {{0}, {1, 2}};
  EXPECT_NE(ProtocolShape::Of(config, train, regrouped).data_digest,
            shape.data_digest);
}

TEST(ProtocolShapeTest, CheckpointCarriesItsShapeAndRejectsOldMagic) {
  core::SelectionCheckpoint ckp;
  ckp.shape = BaseShape();
  auto back = core::SelectionCheckpoint::Deserialize(ckp.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->shape, ckp.shape);
  EXPECT_EQ(back->shape.shards, 2u);
  EXPECT_EQ(back->shape.prefilter_clusters, 8u);
  // Pre-sharding files ("VFPSCKP1" magic) are rejected up front.
  std::vector<uint8_t> old = ckp.Serialize();
  old[7] = '1';
  auto rejected = core::SelectionCheckpoint::Deserialize(old);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("bad magic"), std::string::npos)
      << rejected.status().ToString();
}

}  // namespace
}  // namespace vfps
