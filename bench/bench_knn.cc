// Microbenchmarks for the KNN paths: centralized prediction, the federated
// oracle in BASE and FAGIN modes, and similarity-matrix construction.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "core/similarity.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "ml/knn.h"
#include "vfl/fed_knn.h"
#include "vfl/sharded_knn.h"

namespace vfps {
namespace {

struct KnnFixture {
  data::Dataset train;
  data::Dataset test;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  explicit KnnFixture(size_t rows, size_t features = 16, size_t parties = 4) {
    data::SyntheticConfig config;
    config.num_samples = rows;
    config.num_features = features;
    config.num_informative = features / 2;
    config.num_redundant = features / 4;
    config.seed = 9;
    auto generated = data::GenerateClassification(config).ValueOrDie();
    auto split = data::SplitDataset(generated.data, 0.9, 0.0, 2).ValueOrDie();
    train = std::move(split.train);
    test = std::move(split.test);
    partition = data::RandomVerticalPartition(features, parties, 3).ValueOrDie();
  }
};

void BM_CentralKnnPredict(benchmark::State& state) {
  KnnFixture f(static_cast<size_t>(state.range(0)));
  ml::KnnClassifier knn(10);
  (void)knn.Fit(f.train, {});
  for (auto _ : state) {
    auto preds = knn.Predict(f.test);
    benchmark::DoNotOptimize(preds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.test.num_samples()));
}
BENCHMARK(BM_CentralKnnPredict)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void RunOracle(benchmark::State& state, vfl::KnnOracleMode mode) {
  KnnFixture f(static_cast<size_t>(state.range(0)));
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, f.backend.get(),
                                 &f.network, &f.cost, &f.clock);
  vfl::FedKnnConfig config;
  config.mode = mode;
  config.k = 10;
  config.num_queries = 8;
  for (auto _ : state) {
    auto result = oracle.Run(config, nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}

void BM_FedKnnBase(benchmark::State& state) {
  RunOracle(state, vfl::KnnOracleMode::kBase);
}
BENCHMARK(BM_FedKnnBase)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_FedKnnFagin(benchmark::State& state) {
  RunOracle(state, vfl::KnnOracleMode::kFagin);
}
BENCHMARK(BM_FedKnnFagin)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Encrypted-oracle query throughput under row sharding. shards=1 is a
// one-entry plan (one aggregation round, a one-list merge); higher counts pay
// the per-shard rounds plus the hierarchical merge.
void BM_ShardedFedKnnQuery(benchmark::State& state) {
  KnnFixture f(10000);
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, f.backend.get(),
                                 &f.network, &f.cost, &f.clock);
  vfl::FedKnnConfig config;
  config.mode = vfl::KnnOracleMode::kBase;
  config.k = 10;
  config.num_queries = 8;
  config.shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = oracle.Run(config, nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ShardedFedKnnQuery)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// Out-of-core engine: rows stream through shard-sized blocks, so resident
// feature memory is O(shard), not O(N). mem_bytes reports the process peak
// RSS after the run — a high-water mark, comparable only within one process.
void BM_ShardedKnnQuery(benchmark::State& state) {
  data::SyntheticConfig data_config;
  data_config.num_samples = static_cast<size_t>(state.range(0));
  data_config.num_features = 16;
  data_config.num_informative = 8;
  data_config.num_redundant = 4;
  data_config.seed = 9;
  auto partition = data::RandomVerticalPartition(16, 4, 3).ValueOrDie();
  vfl::ShardedKnnConfig config;
  config.shards = static_cast<size_t>(state.range(1));
  config.k = 10;
  config.num_queries = 8;
  for (auto _ : state) {
    auto result = vfl::RunShardedKnn(data_config, partition, config);
    benchmark::DoNotOptimize(result);
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    state.counters["mem_bytes"] = benchmark::Counter(
        static_cast<double>(ru.ru_maxrss) * 1024.0);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ShardedKnnQuery)
    ->Args({100000, 1})
    ->Args({100000, 8})
    ->Args({1000000, 64})
    ->Unit(benchmark::kMillisecond);

void BM_BuildSimilarity(benchmark::State& state) {
  const size_t parties = static_cast<size_t>(state.range(0));
  std::vector<vfl::QueryNeighborhood> hoods(64);
  Rng rng(4);
  for (auto& hood : hoods) {
    hood.per_party_dt.resize(parties);
    for (double& v : hood.per_party_dt) v = rng.Uniform(0.0, 10.0);
  }
  for (auto _ : state) {
    auto w = core::BuildSimilarity(hoods, parties);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_BuildSimilarity)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace vfps

BENCHMARK_MAIN();
