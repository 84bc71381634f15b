// Measures what the observability layer costs when it is NOT being used —
// the property the "disabled registry = one null-pointer branch per site"
// contract rests on (the companion of bench_fault_overhead).
//
// Three layers, each compared with no registry (the default every
// pre-existing experiment takes) vs. with a MetricsRegistry attached:
//   1. Raw Counter::Add on a hot loop (the primitive's ceiling).
//   2. SimNetwork Send+Recv (one metered site per message).
//   3. A Fig.7-style VFPS-SM selection end to end — the acceptance bar is
//      that the obs:0 row is within noise (<= ~1%) of the pre-obs baseline,
//      and the obs:1 row shows the (small) cost of full instrumentation.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/vfps_sm.h"
#include "data/synthetic.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

// The primitive itself: a striped relaxed add (attached) vs. the branch the
// instrumentation sites take when no registry is present (null check only).
void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      state.range(0) != 0 ? registry.GetCounter("bench.counter") : nullptr;
  uint64_t i = 0;
  for (auto _ : state) {
    if (counter != nullptr) counter->Add(i & 7);
    benchmark::DoNotOptimize(counter);
    ++i;
  }
}
BENCHMARK(BM_CounterAdd)->ArgNames({"obs"})->Arg(0)->Arg(1);

// arg0: payload bytes; arg1: 1 = attach a metrics registry.
void BM_RawSendRecv(benchmark::State& state) {
  net::SimNetwork net;
  obs::MetricsRegistry registry;
  if (state.range(1) != 0) net.set_metrics(&registry);
  const auto payload = bench::MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    (void)net.Send(0, 1, payload);
    auto got = net.Recv(0, 1);
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawSendRecv)
    ->ArgNames({"bytes", "obs"})
    ->Args({64, 0})->Args({64, 1})
    ->Args({4096, 0})->Args({4096, 1});

// arg0: 0 = no registry (the pre-obs code path), 1 = registry attached,
// 2 = registry + tracing. The workload is bench_fault_overhead's
// BM_VfpsSmSelection (bench::OverheadSelection), so the two benches are
// cross-comparable.
void BM_VfpsSmSelection(benchmark::State& state) {
  bench::OverheadSelection sel;
  obs::MetricsRegistry registry;
  if (state.range(0) >= 2) registry.EnableTracing();
  if (state.range(0) != 0) {
    sel.ctx.obs = &registry;
    sel.backend->set_metrics(&registry);
    sel.network.set_metrics(&registry);
  }
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  for (auto _ : state) {
    auto outcome = selector.Select(sel.ctx, 2);
    if (!outcome.ok()) state.SkipWithError(outcome.status().ToString().c_str());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_VfpsSmSelection)
    ->ArgNames({"obs"})
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The CI overhead gate's workload: the encrypted-KNN query from
// bench_kernels' BM_EncKnnQuery (CKKS packed, 512 rows, 4 queries), with the
// full labeled-metrics + trace-propagation instrumentation toggled by arg0
// (0 = none, 1 = labeled metrics, 2 = metrics + tracing). The acceptance
// bar: obs:0 within noise of the pre-obs baseline, obs:1 < 5% over obs:0.
// Unlike the plain-backend selection above, real ciphertext work dominates
// here, so this measures the instrumentation against the paper's actual
// cost profile rather than against a metering-bound toy.
void BM_EncKnnQueryObs(benchmark::State& state) {
  data::SyntheticConfig config;
  config.num_samples = 512 + 64;
  config.num_features = 16;
  config.num_informative = 8;
  config.num_redundant = 4;
  config.seed = 9;
  auto generated = data::GenerateClassification(config).ValueOrDie();
  auto split = data::SplitDataset(generated.data, 512.0 / 576.0, 0.0, 2)
                   .MoveValueUnsafe();
  auto partition = data::RandomVerticalPartition(16, 4, 3).MoveValueUnsafe();
  he::CkksParams params;
  params.poly_degree = 1024;
  auto backend =
      he::CreateCkksBackend(params, 5, he::CkksPacking::kPacked)
          .MoveValueUnsafe();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  obs::MetricsRegistry registry;
  if (state.range(0) >= 2) registry.EnableTracing();
  obs::MetricsRegistry* obs = state.range(0) != 0 ? &registry : nullptr;
  if (obs != nullptr) {
    backend->set_metrics(obs);
    network.set_metrics(obs);
  }
  vfl::FederatedKnnOracle oracle(&split.train, &partition, backend.get(),
                                 &network, &cost, &clock, /*pool=*/nullptr,
                                 obs);
  vfl::FedKnnConfig knn;
  knn.mode = vfl::KnnOracleMode::kBase;
  knn.k = 10;
  knn.num_queries = 4;
  knn.query_group = 1;
  for (auto _ : state) {
    auto result = oracle.Run(knn, nullptr);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_EncKnnQueryObs)
    ->ArgNames({"obs"})
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vfps

BENCHMARK_MAIN();
