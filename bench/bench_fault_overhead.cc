// Measures what the fault-injection machinery costs when it is NOT being
// used — the property the zero-fault bit-identity contract rests on.
//
// Three layers, each compared pristine vs. with a zero-probability FaultSpec
// attached (injector consulted on every send, nothing ever fires):
//   1. Raw SimNetwork Send+Recv.
//   2. ReliableChannel Send+Recv (pass-through vs. seq+CRC framed ARQ).
//   3. A Fig.7-style VFPS-SM selection end to end.
// With faults disabled entirely (the default) the extra work is a single
// null-pointer check and the zero_spec:0 rows measure the exact code path
// every pre-existing experiment takes — that is the "negligible zero-fault
// overhead" contract. Attaching a spec, even an all-zero one, is an opt-in:
// it turns on the seq+CRC framed ARQ path, which copies each payload into a
// frame, CRCs it on send and CRCs it again on receive. With the plain HE
// backend nothing hides that byte work, and the zero_spec:1 rows quantify
// what the opt-in costs. The CRC passes, not the copies, set that cost on
// a host without PCLMULQDQ: the CRC runs at ~1.5 GB/s with slicing-by-8
// there and at ~16 GB/s with PCLMULQDQ folding on AVX2 hosts
// (BM_Crc32 in bench_kernels).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/vfps_sm.h"
#include "net/channel.h"
#include "net/fault.h"
#include "net/network.h"

namespace vfps {
namespace {

// arg0: payload bytes; arg1: 1 = attach a zero-probability fault plan.
void BM_RawSendRecv(benchmark::State& state) {
  net::SimNetwork net;
  SimClock clock;
  if (state.range(1) != 0) net.EnableFaults(net::FaultSpec{}, 7, &clock);
  const auto payload = bench::MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    (void)net.Send(0, 1, payload);
    auto got = net.Recv(0, 1);
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawSendRecv)
    ->ArgNames({"bytes", "zero_spec"})
    ->Args({64, 0})->Args({64, 1})
    ->Args({4096, 0})->Args({4096, 1});

// Same round trip through ReliableChannel: pass-through when faults are
// disabled, the full seq+CRC framed ARQ path when a zero spec is attached.
void BM_ChannelSendRecv(benchmark::State& state) {
  net::SimNetwork net;
  SimClock clock;
  if (state.range(1) != 0) net.EnableFaults(net::FaultSpec{}, 7, &clock);
  net::ReliableChannel chan(&net, &clock);
  const auto payload = bench::MakePayload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    (void)chan.Send(0, 1, payload);
    auto got = chan.Recv(0, 1);
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelSendRecv)
    ->ArgNames({"bytes", "zero_spec"})
    ->Args({64, 0})->Args({64, 1})
    ->Args({4096, 0})->Args({4096, 1});

// arg0: 1 = attach a zero-probability fault plan. Mirrors the Fig. 7 cell
// shape (4 participants, select 2, FAGIN oracle) at chaos-suite scale.
void BM_VfpsSmSelection(benchmark::State& state) {
  bench::OverheadSelection sel;
  if (state.range(0) != 0) {
    sel.network.EnableFaults(net::FaultSpec{}, 7, &sel.clock);
  }
  core::VfpsSmSelector selector(vfl::KnnOracleMode::kFagin);
  for (auto _ : state) {
    auto outcome = selector.Select(sel.ctx, 2);
    if (!outcome.ok()) state.SkipWithError(outcome.status().ToString().c_str());
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_VfpsSmSelection)
    ->ArgNames({"zero_spec"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Incremental repair vs. clean-slate rerun after a single departure.
//
// arg0: 1 = repair (a warmed SelectionCache serves the three survivors'
// score vectors and sub-rankings, so only the Fagin merge over the new
// membership is redone); 0 = clean-slate (no cache: every survivor
// recomputes distances, re-sorts, and re-streams). The PR-7 acceptance gate
// is repair < 30% of clean-slate on this shape (FAGIN oracle, n = 2000
// rows, 4 participants, |Q| = 16).
void BM_SelectRepair(benchmark::State& state) {
  const bench::OverheadData data(2000);
  auto backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  vfl::FederatedKnnOracle oracle(&data.split.train, &data.partition,
                                 backend.get(), &network, &cost, &clock);
  vfl::FedKnnConfig knn;
  knn.mode = vfl::KnnOracleMode::kFagin;
  knn.k = 6;
  knn.num_queries = 16;
  knn.seed = 11;

  vfl::SelectionCache cache;
  const bool repair = state.range(0) != 0;
  if (repair) {
    // Warm the cache with the pre-departure run, as the selector would have
    // before the leave was detected.
    oracle.set_cache(&cache);
    auto warm = oracle.Run(knn, nullptr);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().ToString().c_str());
      return;
    }
  }

  knn.quarantined = {3};  // participant 3 departed; 3 survivors remain
  for (auto _ : state) {
    auto rerun = oracle.Run(knn, nullptr);
    if (!rerun.ok()) state.SkipWithError(rerun.status().ToString().c_str());
    benchmark::DoNotOptimize(rerun);
  }
}
BENCHMARK(BM_SelectRepair)
    ->ArgNames({"repair"})
    ->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vfps

BENCHMARK_MAIN();
