#include "data/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "data/synthetic.h"

namespace vfps::data {
namespace {

// Every feature appears exactly once across the partition.
void ExpectExactCover(const VerticalPartition& partition, size_t num_features) {
  std::vector<int> seen(num_features, 0);
  for (const auto& cols : partition) {
    for (size_t c : cols) {
      ASSERT_LT(c, num_features);
      seen[c]++;
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(RandomPartitionTest, CoversAllFeaturesOnce) {
  auto partition = RandomVerticalPartition(23, 4, 7);
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->size(), 4u);
  ExpectExactCover(*partition, 23);
  for (const auto& cols : *partition) EXPECT_FALSE(cols.empty());
}

TEST(RandomPartitionTest, NearEqualSizes) {
  auto partition = RandomVerticalPartition(22, 4, 1);
  ASSERT_TRUE(partition.ok());
  for (const auto& cols : *partition) {
    EXPECT_GE(cols.size(), 5u);
    EXPECT_LE(cols.size(), 6u);
  }
}

TEST(RandomPartitionTest, RejectsTooManyParticipants) {
  EXPECT_FALSE(RandomVerticalPartition(3, 4, 1).ok());
  EXPECT_FALSE(RandomVerticalPartition(10, 0, 1).ok());
}

TEST(QualityStratifiedTest, CoversAllFeaturesOnce) {
  std::vector<FeatureKind> kinds;
  for (int i = 0; i < 10; ++i) kinds.push_back(FeatureKind::kInformative);
  for (int i = 0; i < 6; ++i) kinds.push_back(FeatureKind::kRedundant);
  for (int i = 0; i < 6; ++i) kinds.push_back(FeatureKind::kNoise);
  auto partition = QualityStratifiedPartition(kinds, 4, 3);
  ASSERT_TRUE(partition.ok());
  ExpectExactCover(*partition, kinds.size());
  for (const auto& cols : *partition) EXPECT_FALSE(cols.empty());
}

TEST(QualityStratifiedTest, EarlyParticipantsGetMoreInformative) {
  std::vector<FeatureKind> kinds;
  for (int i = 0; i < 40; ++i) kinds.push_back(FeatureKind::kInformative);
  for (int i = 0; i < 20; ++i) kinds.push_back(FeatureKind::kRedundant);
  for (int i = 0; i < 20; ++i) kinds.push_back(FeatureKind::kNoise);
  auto partition = QualityStratifiedPartition(kinds, 4, 5);
  ASSERT_TRUE(partition.ok());
  auto informative_count = [&](size_t p) {
    size_t count = 0;
    for (size_t c : (*partition)[p]) {
      count += kinds[c] == FeatureKind::kInformative;
    }
    return count;
  };
  EXPECT_GT(informative_count(0), informative_count(2));
  EXPECT_GT(informative_count(0), informative_count(3));
}

TEST(QualityStratifiedTest, WorksWithManyParticipants) {
  std::vector<FeatureKind> kinds(68, FeatureKind::kNoise);
  for (int i = 0; i < 24; ++i) kinds[i] = FeatureKind::kInformative;
  for (size_t p : {8u, 12u, 16u, 20u}) {
    auto partition = QualityStratifiedPartition(kinds, p, 1);
    ASSERT_TRUE(partition.ok()) << "P=" << p;
    ASSERT_EQ(partition->size(), p);
    ExpectExactCover(*partition, kinds.size());
    for (const auto& cols : *partition) EXPECT_FALSE(cols.empty());
  }
}

TEST(WithDuplicatesTest, AppendsExactCopies) {
  auto base = RandomVerticalPartition(12, 4, 2);
  ASSERT_TRUE(base.ok());
  auto dup = WithDuplicates(*base, 1, 3);
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(dup->size(), 7u);
  for (size_t i = 4; i < 7; ++i) EXPECT_EQ((*dup)[i], (*base)[1]);
  EXPECT_FALSE(WithDuplicates(*base, 9, 1).ok());
}

TEST(MaterializeViewsTest, SlicesColumns) {
  Dataset joint(3, 4, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) joint.Set(i, j, 10.0 * i + j);
  }
  VerticalPartition partition = {{0, 2}, {1, 3}};
  auto views = MaterializeViews(joint, partition);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].num_features(), 2u);
  EXPECT_DOUBLE_EQ(views[0].At(1, 1), 12.0);
  EXPECT_DOUBLE_EQ(views[1].At(2, 0), 21.0);
}

TEST(ConcatViewsTest, ConcatenatesSelected) {
  Dataset joint(2, 5, 2);
  for (size_t j = 0; j < 5; ++j) joint.Set(0, j, static_cast<double>(j));
  VerticalPartition partition = {{0, 1}, {2}, {3, 4}};
  auto concat = ConcatViews(joint, partition, {0, 2});
  ASSERT_TRUE(concat.ok());
  EXPECT_EQ(concat->num_features(), 4u);
  EXPECT_DOUBLE_EQ(concat->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(concat->At(0, 2), 3.0);
}

TEST(ConcatViewsTest, RejectsDuplicatesAndOutOfRange) {
  Dataset joint(2, 5, 2);
  VerticalPartition partition = {{0, 1}, {2}, {3, 4}};
  EXPECT_FALSE(ConcatViews(joint, partition, {1, 1}).ok());
  EXPECT_FALSE(ConcatViews(joint, partition, {5}).ok());
  EXPECT_FALSE(ConcatViews(joint, partition, {}).ok());
}

TEST(SelectedFeatureCountTest, SumsWidths) {
  VerticalPartition partition = {{0, 1}, {2}, {3, 4, 5}};
  EXPECT_EQ(SelectedFeatureCount(partition, {0, 2}), 5u);
  EXPECT_EQ(SelectedFeatureCount(partition, {1}), 1u);
  EXPECT_EQ(SelectedFeatureCount(partition, {}), 0u);
}

TEST(RowShardsTest, NearEqualShardsTileTheRowsWidestFirst) {
  for (size_t rows : {1, 2, 7, 64, 1000, 1001}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, rows}) {
      if (shards > rows) continue;
      auto plan = MakeRowShards(rows, shards);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      ASSERT_EQ(plan->size(), shards);
      size_t next = 0;
      for (size_t s = 0; s < shards; ++s) {
        const RowShard& shard = (*plan)[s];
        EXPECT_EQ(shard.begin, next) << rows << "/" << shards << " shard " << s;
        EXPECT_GE(shard.rows(), 1u);
        // Sizes differ by at most one, and never grow along the plan.
        EXPECT_LE(shard.rows(), (*plan)[0].rows());
        EXPECT_GE(shard.rows() + 1, (*plan)[0].rows());
        if (s > 0) {
          EXPECT_LE(shard.rows(), (*plan)[s - 1].rows());
        }
        next = shard.end;
      }
      EXPECT_EQ(next, rows) << rows << "/" << shards;
    }
  }
}

TEST(RowShardsTest, ShardOfRowNamesTheShardHoldingTheRow) {
  for (size_t rows : {1, 5, 64, 1001}) {
    for (size_t shards : {size_t{1}, size_t{3}, size_t{8}, rows}) {
      if (shards > rows) continue;
      const auto plan = MakeRowShards(rows, shards).ValueOrDie();
      for (size_t row = 0; row < rows; ++row) {
        const size_t s = ShardOfRow(row, rows, shards);
        ASSERT_LT(s, plan.size());
        EXPECT_TRUE(plan[s].contains(row))
            << "row " << row << " of " << rows << " in " << shards << " shards";
      }
    }
  }
}

TEST(RowShardsTest, ShardCountOutsideOneToRowsRejected) {
  EXPECT_TRUE(MakeRowShards(10, 0).status().IsInvalidArgument());
  EXPECT_TRUE(MakeRowShards(10, 11).status().IsInvalidArgument());
  EXPECT_TRUE(MakeRowShards(10, SIZE_MAX).status().IsInvalidArgument());
  EXPECT_TRUE(MakeRowShards(0, 1).status().IsInvalidArgument());
  EXPECT_TRUE(MakeRowShards(10, 10).ok());
}

}  // namespace
}  // namespace vfps::data
