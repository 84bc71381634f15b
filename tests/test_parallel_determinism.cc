// Proves the parallel encrypted-KNN pipeline's core contract: running with
// any thread count produces byte-identical results — not "close", identical.
// Every comparison below is exact (==) on doubles on purpose: the parallel
// path must preserve floating-point accumulation order, ciphertext streams,
// and clock charges bit for bit (see FederatedKnnOracle's class comment).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/similarity.h"
#include "core/vfps_sm.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

enum class BackendKind { kPlain, kCkks };

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  // A fresh, identically-seeded deployment per run: the oracle mutates the
  // backend/network/clock, so cross-thread-count comparisons need each run
  // to start from the same state.
  static Deployment Make(BackendKind kind) {
    Deployment d;
    data::SyntheticConfig config;
    config.num_samples = 400;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    d.split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
    data::StandardizeSplit(&d.split).Abort("standardize");
    d.partition =
        data::RandomVerticalPartition(config.num_features, 4, 9).MoveValueUnsafe();
    if (kind == BackendKind::kCkks) {
      he::CkksParams params;
      params.poly_degree = 1024;
      d.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    } else {
      d.backend = he::CreatePlainBackend();
    }
    return d;
  }
};

struct RunArtifacts {
  std::vector<vfl::QueryNeighborhood> neighborhoods;
  vfl::FedKnnStats stats;
  net::TrafficStats traffic;
  he::HeOpStats he_ops;
  double clock_total = 0.0;
  std::vector<double> clock_categories;
};

RunArtifacts RunOracle(BackendKind kind, vfl::KnnOracleMode mode,
                       size_t threads) {
  Deployment d = Deployment::Make(kind);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  vfl::FederatedKnnOracle oracle(&d.split.train, &d.partition, d.backend.get(),
                                 &d.network, &d.cost, &d.clock, pool.get());
  vfl::FedKnnConfig config;
  config.mode = mode;
  config.k = 6;
  config.num_queries = 24;
  config.seed = 77;

  RunArtifacts out;
  auto result = oracle.Run(config, &out.stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  out.neighborhoods = result.MoveValueUnsafe();
  out.traffic = d.network.total();
  out.he_ops = d.backend->stats();
  out.clock_total = d.clock.Total();
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    out.clock_categories.push_back(
        d.clock.TotalFor(static_cast<CostCategory>(c)));
  }
  return out;
}

void ExpectIdentical(const RunArtifacts& a, const RunArtifacts& b,
                     size_t threads) {
  ASSERT_EQ(a.neighborhoods.size(), b.neighborhoods.size());
  for (size_t q = 0; q < a.neighborhoods.size(); ++q) {
    EXPECT_EQ(a.neighborhoods[q].query_row, b.neighborhoods[q].query_row);
    EXPECT_EQ(a.neighborhoods[q].neighbors, b.neighborhoods[q].neighbors)
        << "threads=" << threads << " query " << q;
    ASSERT_EQ(a.neighborhoods[q].per_party_dt.size(),
              b.neighborhoods[q].per_party_dt.size());
    for (size_t p = 0; p < a.neighborhoods[q].per_party_dt.size(); ++p) {
      // Exact: the parallel merge preserves FP accumulation order.
      EXPECT_EQ(a.neighborhoods[q].per_party_dt[p],
                b.neighborhoods[q].per_party_dt[p])
          << "threads=" << threads << " query " << q << " party " << p;
    }
  }
  EXPECT_EQ(a.stats.queries, b.stats.queries);
  EXPECT_EQ(a.stats.candidates_encrypted, b.stats.candidates_encrypted);
  EXPECT_EQ(a.stats.fagin_depth, b.stats.fagin_depth);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
  EXPECT_EQ(a.he_ops.encrypt_ops, b.he_ops.encrypt_ops);
  EXPECT_EQ(a.he_ops.decrypt_ops, b.he_ops.decrypt_ops);
  EXPECT_EQ(a.he_ops.add_ops, b.he_ops.add_ops);
  EXPECT_EQ(a.he_ops.values_encrypted, b.he_ops.values_encrypted);
  EXPECT_EQ(a.clock_total, b.clock_total) << "threads=" << threads;
  EXPECT_EQ(a.clock_categories, b.clock_categories) << "threads=" << threads;
}

TEST(ParallelDeterminismTest, FedKnnFaginPlainBackend) {
  const RunArtifacts serial =
      RunOracle(BackendKind::kPlain, vfl::KnnOracleMode::kFagin, 1);
  for (size_t threads : kThreadCounts) {
    ExpectIdentical(
        serial, RunOracle(BackendKind::kPlain, vfl::KnnOracleMode::kFagin, threads),
        threads);
  }
}

TEST(ParallelDeterminismTest, FedKnnBasePlainBackend) {
  const RunArtifacts serial =
      RunOracle(BackendKind::kPlain, vfl::KnnOracleMode::kBase, 1);
  for (size_t threads : kThreadCounts) {
    ExpectIdentical(
        serial, RunOracle(BackendKind::kPlain, vfl::KnnOracleMode::kBase, threads),
        threads);
  }
}

TEST(ParallelDeterminismTest, FedKnnFaginRealCkks) {
  // With real CKKS the decrypted distances carry encryption noise; identical
  // results across thread counts therefore require identical ciphertext
  // streams, which is exactly what the per-query Fork seeds guarantee.
  const RunArtifacts serial =
      RunOracle(BackendKind::kCkks, vfl::KnnOracleMode::kFagin, 1);
  for (size_t threads : kThreadCounts) {
    ExpectIdentical(
        serial, RunOracle(BackendKind::kCkks, vfl::KnnOracleMode::kFagin, threads),
        threads);
  }
}

enum class Scheme { kCkks, kPaillier, kPlain };

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCkks:
      return "ckks";
    case Scheme::kPaillier:
      return "paillier";
    case Scheme::kPlain:
      return "plain";
  }
  return "unknown";
}

struct BatchOutputs {
  std::vector<std::vector<uint8_t>> encrypted;
  std::vector<std::vector<uint8_t>> summed;
  std::vector<std::vector<double>> decrypted;
  he::HeOpStats stats;
};

// EncryptBatch over 12 vectors, AddBatch over 4 groups of 3 of the
// ciphertexts, then DecryptBatch of the sums, on a fresh backend.
BatchOutputs RunBatches(Scheme scheme, ThreadPool* pool) {
  std::unique_ptr<he::HeBackend> backend;
  if (scheme == Scheme::kCkks) {
    he::CkksParams params;
    params.poly_degree = 1024;
    backend = he::CreateCkksBackend(params, 55).MoveValueUnsafe();
  } else if (scheme == Scheme::kPaillier) {
    backend = he::CreatePaillierBackend(256, 20, 55).MoveValueUnsafe();
  } else {
    backend = he::CreatePlainBackend();
  }
  backend->set_thread_pool(pool);

  std::vector<std::vector<double>> batch;
  for (size_t i = 0; i < 12; ++i) {
    std::vector<double> v(50);
    for (size_t j = 0; j < v.size(); ++j) {
      v[j] = static_cast<double>(i * v.size() + j) * 0.25;
    }
    batch.push_back(std::move(v));
  }
  BatchOutputs out;
  const auto encrypted = backend->EncryptBatch(batch).ValueOrDie();
  std::vector<std::vector<const he::EncryptedVector*>> groups(4);
  for (size_t i = 0; i < encrypted.size(); ++i) {
    groups[i / 3].push_back(&encrypted[i]);
    out.encrypted.push_back(encrypted[i].blob);
  }
  const auto summed = backend->AddBatch(groups).ValueOrDie();
  for (const auto& v : summed) out.summed.push_back(v.blob);
  out.decrypted = backend->DecryptBatch(summed).ValueOrDie();
  out.stats = backend->stats();
  return out;
}

TEST(ParallelDeterminismTest, BatchOpsMatchAcrossSchemesAndThreadCounts) {
  // Every scheme's batched HE entry points must emit the same ciphertext
  // bytes, decrypted values and op counters with no pool and on a pool of
  // any size.
  for (Scheme scheme : {Scheme::kCkks, Scheme::kPaillier, Scheme::kPlain}) {
    const BatchOutputs serial = RunBatches(scheme, nullptr);
    ASSERT_EQ(serial.decrypted.size(), 4u) << SchemeName(scheme);
    ASSERT_GT(serial.stats.add_ops, 0u) << SchemeName(scheme);
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const BatchOutputs pooled = RunBatches(scheme, &pool);
      const std::string label =
          std::string(SchemeName(scheme)) + " threads=" + std::to_string(threads);
      EXPECT_EQ(pooled.encrypted, serial.encrypted) << label;
      EXPECT_EQ(pooled.summed, serial.summed) << label;
      EXPECT_EQ(pooled.decrypted, serial.decrypted) << label;
      EXPECT_EQ(pooled.stats.encrypt_ops, serial.stats.encrypt_ops) << label;
      EXPECT_EQ(pooled.stats.decrypt_ops, serial.stats.decrypt_ops) << label;
      EXPECT_EQ(pooled.stats.add_ops, serial.stats.add_ops) << label;
      EXPECT_EQ(pooled.stats.values_encrypted, serial.stats.values_encrypted)
          << label;
      EXPECT_EQ(pooled.stats.values_decrypted, serial.stats.values_decrypted)
          << label;
      EXPECT_EQ(pooled.stats.values_added, serial.stats.values_added) << label;
    }
  }
}

TEST(ParallelDeterminismTest, BuildSimilarityMatchesAcrossThreadCounts) {
  const RunArtifacts run =
      RunOracle(BackendKind::kPlain, vfl::KnnOracleMode::kFagin, 1);
  const size_t p = 4;
  auto serial = core::BuildSimilarity(run.neighborhoods, p, nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto parallel = core::BuildSimilarity(run.neighborhoods, p, &pool);
    ASSERT_TRUE(parallel.ok());
    for (size_t a = 0; a < p; ++a) {
      for (size_t b = 0; b < p; ++b) {
        EXPECT_EQ(serial->At(a, b), parallel->At(a, b))
            << "threads=" << threads << " cell (" << a << "," << b << ")";
      }
    }
  }
}

TEST(ParallelDeterminismTest, VfpsSmSelectionIdenticalAcrossThreadCounts) {
  // End to end: the full VFPS-SM selection (oracle -> similarity -> greedy)
  // must pick the same participants with the same scores and charge the same
  // simulated seconds at every thread count.
  struct Outcome {
    core::SelectionOutcome selection;
    core::SimilarityMatrix similarity;
  };
  auto run_selection = [](size_t threads) {
    Deployment d = Deployment::Make(BackendKind::kPlain);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    core::SelectionContext ctx;
    ctx.split = &d.split;
    ctx.partition = &d.partition;
    ctx.backend = d.backend.get();
    ctx.network = &d.network;
    ctx.cost = &d.cost;
    ctx.clock = &d.clock;
    ctx.pool = pool.get();
    ctx.knn.k = 6;
    ctx.knn.num_queries = 24;
    ctx.seed = 11;
    core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
    auto outcome = selector.Select(ctx, 2);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return Outcome{outcome.MoveValueUnsafe(), selector.last_similarity()};
  };

  const Outcome serial = run_selection(1);
  EXPECT_EQ(serial.selection.selected.size(), 2u);
  for (size_t threads : kThreadCounts) {
    const Outcome parallel = run_selection(threads);
    EXPECT_EQ(serial.selection.selected, parallel.selection.selected)
        << "threads=" << threads;
    EXPECT_EQ(serial.selection.scores, parallel.selection.scores);
    EXPECT_EQ(serial.selection.sim_seconds, parallel.selection.sim_seconds);
    const size_t p = serial.similarity.num_participants();
    ASSERT_EQ(parallel.similarity.num_participants(), p);
    for (size_t a = 0; a < p; ++a) {
      for (size_t b = 0; b < p; ++b) {
        EXPECT_EQ(serial.similarity.At(a, b), parallel.similarity.At(a, b))
            << "threads=" << threads << " cell (" << a << "," << b << ")";
      }
    }
  }
}

}  // namespace
}  // namespace vfps
