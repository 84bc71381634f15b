// Kernel-level microbenchmarks feeding the bench-regression harness
// (tools/run_bench.sh -> BENCH_*.json). Benchmarks are named after the
// OPERATION the product executes, not the implementation, so the harness can
// compare runs across PRs: the same name always measures "what the product
// does for this operation today".
//
// Coverage: 64-bit modular multiplication, the negacyclic NTT (at 54-bit
// and at the default 50-bit primes), the CKKS ciphertext ops on the
// selection hot path (encrypt/decrypt/add) and the layers inside
// them (encode, decode, noise sampling, the key product), a whole backend
// Encrypt including the wire write, Paillier encrypt/add, the plaintext
// distance kernels behind KnnClassifier / FederatedKnnOracle, the per-party
// sub-ranking sort, the bounded top-k selection, the CRC-32 every
// fault-tolerant channel frame pays twice, and one end-to-end encrypted-KNN
// query.

// Per-ISA rows: the ISA-sensitive benchmarks also register pinned variants
// named `<bench>/isa:<scalar|avx2|avx512>` (only for ISAs the host supports),
// and every dispatched ISA-sensitive row carries an `isa` counter with the
// numeric simd::Isa it actually ran on. tools/bench_report.py uses both: the
// pinned rows yield within-run `speedup_vs_scalar_isa`, and the counter stops
// the regression gate from comparing a row against a baseline measured on a
// different ISA (see docs/KERNELS.md).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "he/backend.h"
#include "he/ckks.h"
#include "he/modarith.h"
#include "he/ntt.h"
#include "he/paillier.h"
#include "ml/kernels.h"
#include "ml/knn.h"
#include "simd/simd.h"
#include "topk/ranked_list.h"
#include "vfl/fed_knn.h"

namespace vfps {
namespace {

// Tags an ISA-sensitive benchmark's row with the backend it dispatched to.
void SetIsaCounter(benchmark::State& state) {
  state.counters["isa"] = static_cast<double>(simd::ActiveIsa());
}

// ---------------------------------------------------------------------------
// Modular arithmetic
// ---------------------------------------------------------------------------

constexpr size_t kMulOps = 4096;

struct MulModFixture {
  uint64_t q;
  std::vector<uint64_t> a, b;

  MulModFixture() {
    q = *he::GeneratePrime(54, 2 * 4096);
    Rng rng(17);
    a.resize(kMulOps);
    b.resize(kMulOps);
    for (size_t i = 0; i < kMulOps; ++i) {
      a[i] = rng.NextBounded(q);
      b[i] = rng.NextBounded(q);
    }
  }
};

void BM_MulModU128(benchmark::State& state) {
  MulModFixture f;
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) acc ^= he::MulMod(f.a[i], f.b[i], f.q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModU128);

void BM_MulModBarrett(benchmark::State& state) {
  MulModFixture f;
  const he::Modulus m(f.q);
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) acc ^= he::MulMod(f.a[i], f.b[i], m);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModBarrett);

// Multiplication by a fixed operand with a precomputed Shoup quotient — the
// form every NTT butterfly executes.
void BM_MulModShoup(benchmark::State& state) {
  MulModFixture f;
  std::vector<uint64_t> bs(kMulOps);
  for (size_t i = 0; i < kMulOps; ++i) {
    bs[i] = he::ShoupPrecompute(f.b[i], f.q);
  }
  for (auto _ : state) {
    uint64_t acc = 0;
    for (size_t i = 0; i < kMulOps; ++i) {
      acc ^= he::MulModShoup(f.a[i], f.b[i], bs[i], f.q);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kMulOps));
}
BENCHMARK(BM_MulModShoup);

// ---------------------------------------------------------------------------
// Negacyclic NTT
// ---------------------------------------------------------------------------

// The unsuffixed rows keep 54-bit primes, as they always had; the
// `bits:50` siblings measure the default CKKS prime width, which takes the
// IFMA butterflies on AVX-512 CPUs that have them (docs/KERNELS.md).
void NttForwardBody(benchmark::State& state, size_t n, int bits) {
  auto prime = he::GeneratePrime(bits, 2 * n);
  auto tables = he::NttTables::Create(n, *prime);
  Rng rng(1);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(*prime);
  for (auto _ : state) {
    tables->Forward(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(uint64_t)));
  SetIsaCounter(state);
}

void BM_NttForward(benchmark::State& state) {
  NttForwardBody(state, static_cast<size_t>(state.range(0)), 54);
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096);

void NttInverseBody(benchmark::State& state, size_t n, int bits) {
  auto prime = he::GeneratePrime(bits, 2 * n);
  auto tables = he::NttTables::Create(n, *prime);
  Rng rng(2);
  std::vector<uint64_t> poly(n);
  for (auto& v : poly) v = rng.NextBounded(*prime);
  for (auto _ : state) {
    tables->Inverse(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(n * sizeof(uint64_t)));
  SetIsaCounter(state);
}

void BM_NttInverse(benchmark::State& state) {
  NttInverseBody(state, static_cast<size_t>(state.range(0)), 54);
}
BENCHMARK(BM_NttInverse)->Arg(1024)->Arg(4096);

// Registered in RegisterRows below under "BM_NttForward/4096/bits:50" and
// "BM_NttInverse/4096/bits:50".
void NttForward50Body(benchmark::State& state) {
  NttForwardBody(state, 4096, 50);
}
void NttInverse50Body(benchmark::State& state) {
  NttInverseBody(state, 4096, 50);
}

// ---------------------------------------------------------------------------
// CKKS scheme operations (the encrypted-KNN oracle's per-query HE cost)
// ---------------------------------------------------------------------------

struct CkksKernelFixture {
  std::shared_ptr<const he::CkksContext> ctx;
  Rng rng{7};
  he::CkksSecretKey sk;
  he::CkksPublicKey pk;
  std::vector<double> values;

  explicit CkksKernelFixture(size_t degree) {
    he::CkksParams params;
    params.poly_degree = degree;
    ctx = he::CkksContext::Create(params).ValueOrDie();
    sk = ctx->GenerateSecretKey(&rng);
    pk = ctx->GeneratePublicKey(sk, &rng);
    values.resize(ctx->slot_count());
    Rng vals(3);
    for (auto& v : values) v = vals.Uniform(-100.0, 100.0);
  }
};

void BM_CkksEncrypt(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ct = f.ctx->EncryptVector(f.pk, f.values, &f.rng);
    benchmark::DoNotOptimize(ct);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_CkksEncrypt)->Arg(4096);

// The fixed-operand product of encryption, fused with its addition:
// c0 = b * u + e over both primes, with the public key's per-coefficient
// Shoup companions (detail::MulAddModShoupVec; IFMA at the default primes
// where the CPU has it).
void CkksKeyProductBody(benchmark::State& state, size_t degree) {
  CkksKernelFixture f(degree);
  Rng rng(11);
  he::RnsPoly u = he::SampleTernary(f.ctx->rns(), &rng);
  he::ToNtt(f.ctx->rns(), &u);
  he::RnsPoly e = he::SampleGaussian(f.ctx->rns(), &rng, f.ctx->noise());
  he::ToNtt(f.ctx->rns(), &e);
  const auto bytes = [](const std::vector<uint64_t>& words) {
    return reinterpret_cast<const uint8_t*>(words.data());
  };
  std::vector<uint64_t> out(degree);
  for (auto _ : state) {
    for (size_t i = 0; i < u.num_primes(); ++i) {
      he::detail::MulAddModShoupVec(
          reinterpret_cast<uint8_t*>(out.data()), bytes(u.residues[i]),
          f.pk.b.residues[i].data(), f.pk.b_shoup[i].data(),
          bytes(e.residues[i]), degree, f.ctx->rns().prime(i));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(degree * u.num_primes()));
  SetIsaCounter(state);
}

void BM_CkksKeyProduct(benchmark::State& state) {
  CkksKeyProductBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_CkksKeyProduct)->Arg(4096);

void BM_CkksDecrypt(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  auto ct = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  for (auto _ : state) {
    auto values = f.ctx->DecryptVector(f.sk, ct, f.values.size());
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
}
BENCHMARK(BM_CkksDecrypt)->Arg(4096);

// The encode and decode around the scheme's key products: the coefficient
// encode (round-and-reduce into both primes, then the forward NTT) and the
// decode (inverse NTT, CRT composition, division by the scale).
void CkksEncodeBody(benchmark::State& state, size_t degree) {
  CkksKernelFixture f(degree);
  const double scale = f.ctx->params().scale;
  for (auto _ : state) {
    auto pt = f.ctx->Encode(f.values, scale);
    benchmark::DoNotOptimize(pt);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
  SetIsaCounter(state);
}

void BM_CkksEncode(benchmark::State& state) {
  CkksEncodeBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_CkksEncode)->Arg(4096);

void CkksDecodeBody(benchmark::State& state, size_t degree) {
  CkksKernelFixture f(degree);
  const double scale = f.ctx->params().scale;
  const auto pt = f.ctx->Encode(f.values, scale).ValueOrDie();
  for (auto _ : state) {
    auto values = f.ctx->Decode(pt, scale, f.values.size());
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.values.size()));
  SetIsaCounter(state);
}

void BM_CkksDecode(benchmark::State& state) {
  CkksDecodeBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_CkksDecode)->Arg(4096);

// The encryption masks: two rounded-Gaussian error polynomials (CDT table)
// and one ternary polynomial per ciphertext.
void BM_SampleGaussian(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  he::RnsPoly poly;
  for (auto _ : state) {
    he::SampleGaussianInto(f.ctx->rns(), &f.rng, &poly, f.ctx->noise());
    benchmark::DoNotOptimize(poly.residues.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SampleGaussian)->Arg(4096);

void BM_SampleTernary(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  he::RnsPoly poly;
  for (auto _ : state) {
    he::SampleTernaryInto(f.ctx->rns(), &f.rng, &poly);
    benchmark::DoNotOptimize(poly.residues.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SampleTernary)->Arg(4096);

void BM_CkksAdd(benchmark::State& state) {
  CkksKernelFixture f(static_cast<size_t>(state.range(0)));
  auto a = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  auto b = f.ctx->EncryptVector(f.pk, f.values, &f.rng).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx->AddInPlaceCt(&a, b));
  }
}
BENCHMARK(BM_CkksAdd)->Arg(4096);

// A whole backend Encrypt: chunking, encryption and the wire write, for a
// 1-, 2- and 8-ciphertext blob (4096 values per ciphertext).
void BM_BackendEncryptVector(benchmark::State& state) {
  auto backend = he::CreateCkksBackend(he::CkksParams{}, 5).MoveValueUnsafe();
  std::vector<double> values(static_cast<size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    auto enc = backend->Encrypt(values);
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BackendEncryptVector)->Arg(2048)->Arg(8192)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

// One unit of the base-sharded workload at the aggregation server and the
// leader: 4 parties' blobs of 4,800 values (2 ciphertexts each) summed,
// and the sum decrypted.
struct BackendUnitFixture {
  static constexpr size_t kParties = 4;
  static constexpr size_t kValues = 4800;
  std::unique_ptr<he::HeBackend> backend =
      he::CreateCkksBackend(he::CkksParams{}, 5).MoveValueUnsafe();
  std::vector<he::EncryptedVector> blobs;
  std::vector<const he::EncryptedVector*> inputs;

  BackendUnitFixture() {
    Rng vals(9);
    for (size_t p = 0; p < kParties; ++p) {
      std::vector<double> values(kValues);
      for (double& v : values) v = vals.Uniform(0.0, 4.0);
      blobs.push_back(backend->Encrypt(values).MoveValueUnsafe());
    }
    for (const auto& blob : blobs) inputs.push_back(&blob);
  }
};

void BM_CkksBackendSum(benchmark::State& state) {
  BackendUnitFixture f;
  for (auto _ : state) {
    auto sum = f.backend->Sum(f.inputs);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.kParties * f.kValues));
  SetIsaCounter(state);
}
BENCHMARK(BM_CkksBackendSum)->Unit(benchmark::kMicrosecond);

void BM_CkksBackendDecrypt(benchmark::State& state) {
  BackendUnitFixture f;
  const he::EncryptedVector sum = f.backend->Sum(f.inputs).MoveValueUnsafe();
  for (auto _ : state) {
    auto values = f.backend->Decrypt(sum);
    benchmark::DoNotOptimize(values);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.kValues));
  SetIsaCounter(state);
}
BENCHMARK(BM_CkksBackendDecrypt)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Paillier (the scalar baseline backend), by modulus bits
// ---------------------------------------------------------------------------

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(11);
  auto keys =
      he::Paillier::GenerateKeys(static_cast<size_t>(state.range(0)), &rng)
          .ValueOrDie();
  for (auto _ : state) {
    auto ct = he::Paillier::Encrypt(keys.pub, he::BigInt(123456), &rng);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_PaillierEncrypt)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_PaillierAdd(benchmark::State& state) {
  Rng rng(12);
  auto keys = he::Paillier::GenerateKeys(512, &rng).ValueOrDie();
  auto a = he::Paillier::Encrypt(keys.pub, he::BigInt(1), &rng).ValueOrDie();
  auto b = he::Paillier::Encrypt(keys.pub, he::BigInt(2), &rng).ValueOrDie();
  for (auto _ : state) {
    auto sum = he::Paillier::Add(keys.pub, a, b);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PaillierAdd);

// ---------------------------------------------------------------------------
// Distance kernels + bounded top-k
// ---------------------------------------------------------------------------

struct DistanceFixture {
  data::Dataset train;
  data::Dataset test;
  data::VerticalPartition partition;

  DistanceFixture(size_t rows, size_t features, size_t parties) {
    data::SyntheticConfig config;
    config.num_samples = rows + 64;
    config.num_features = features;
    config.num_informative = features / 2;
    config.num_redundant = features / 4;
    config.seed = 9;
    auto generated = data::GenerateClassification(config).ValueOrDie();
    auto split =
        data::SplitDataset(generated.data,
                           static_cast<double>(rows) /
                               static_cast<double>(config.num_samples),
                           0.0, 2)
            .ValueOrDie();
    train = std::move(split.train);
    test = std::move(split.test);
    partition = data::RandomVerticalPartition(features, parties, 3).ValueOrDie();
  }
};

void BM_KnnNeighbors(benchmark::State& state) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  ml::KnnClassifier knn(10);
  (void)knn.Fit(f.train, {});
  size_t qi = 0;
  for (auto _ : state) {
    auto neighbors = knn.Neighbors(f.test.Row(qi));
    benchmark::DoNotOptimize(neighbors);
    qi = (qi + 1) % f.test.num_samples();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.train.num_samples()));
}
BENCHMARK(BM_KnnNeighbors)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_FedKnnClassify(benchmark::State& state) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  auto backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, backend.get(),
                                 &network, &cost, &clock);
  const std::vector<size_t> all = {0, 1, 2, 3};
  for (auto _ : state) {
    auto preds = oracle.ClassifyPredictions(f.test, all, 10, false);
    benchmark::DoNotOptimize(preds);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.test.num_samples()));
}
BENCHMARK(BM_FedKnnClassify)->Arg(2000)->Unit(benchmark::kMillisecond);

// The dispatched fixed-association dot kernel in isolation (the inner loop
// of every plaintext distance computation).
void DotProductBody(benchmark::State& state, size_t n) {
  Rng rng(27);
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.Uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  for (auto _ : state) {
    double dot = ml::DotProduct(a.data(), b.data(), n);
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetIsaCounter(state);
}

void BM_DotProduct(benchmark::State& state) {
  DotProductBody(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_DotProduct)->Arg(1024);

// The norm-decomposed block distance kernel over a cached FeatureBlock — the
// unit of work KnnClassifier/FederatedKnnOracle repeat per query, over
// `features` columns (64 unless given: wide rows keep the per-row dot in
// the 4-wide vector body rather than the ragged tail).
void BlockSquaredDistancesBody(benchmark::State& state, size_t rows,
                               size_t features = 64) {
  data::Dataset data(rows, features, 2);
  Rng rng(29);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) {
      data.Set(i, j, rng.Uniform(-1.0, 1.0));
    }
  }
  const ml::FeatureBlock block(data);
  std::vector<double> query(features);
  for (auto& v : query) v = rng.Uniform(-1.0, 1.0);
  const double q_norm = ml::SquaredNorm(query.data(), features);
  std::vector<double> out(rows);
  for (auto _ : state) {
    ml::BlockSquaredDistances(block, query.data(), q_norm, 0, rows,
                              out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<int64_t>(rows * features * sizeof(double)));
  SetIsaCounter(state);
}

void BM_BlockSquaredDistances(benchmark::State& state) {
  BlockSquaredDistancesBody(state, static_cast<size_t>(state.range(0)));
}
// 256 rows (128 KiB block) stays cache-resident and exposes the kernel's
// compute speed; 2000 rows (1 MiB) spills toward L3 and is bandwidth-bound,
// the regime of a wide block. The oracle's party blocks are narrow (2-5
// columns): the ISA-pinned `/16000/cols:N` rows below measure those.
BENCHMARK(BM_BlockSquaredDistances)->Arg(256)->Arg(2000);

// The bounded top-k selection over a full distance vector, exactly as the
// leader ranks decrypted aggregates: k smallest by (value, index).
void BM_SmallestK(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = 10;
  Rng rng(23);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.Uniform(0.0, 100.0);
  for (auto _ : state) {
    auto idx = ml::SmallestK(values, k);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SmallestK)->Arg(16384)->Unit(benchmark::kMicrosecond);

// One party's partial squared distances to a query, as the oracle ranks
// them: rows and query are Gaussian over 4 columns (the SUSY preset's 18
// features over 4 parties), drawn here rather than from a dataset so that
// the paper-scale shape needs no 1.2M-row fixture. 19,200 rows is the
// SUSY preset at scale 0.5; 1,228,800 is SUSY x32.
std::vector<double> SubRankingScores(size_t rows) {
  constexpr size_t kCols = 4;
  Rng rng(9);
  double query[kCols];
  for (double& q : query) q = rng.Normal();
  std::vector<double> scores(rows);
  for (double& d : scores) {
    d = 0.0;
    for (double q : query) {
      const double diff = rng.Normal() - q;
      d += diff * diff;
    }
  }
  return scores;
}

// One party's complete sub-ranking: every row id sorted by the party's
// partial distance, ties by id (the reference the lazy ranking equals).
void BM_SubRanking(benchmark::State& state) {
  const std::vector<double> scores =
      SubRankingScores(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto order = topk::RankedListSet::SortedOrder(scores);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scores.size()));
}
BENCHMARK(BM_SubRanking)
    ->Arg(19200)
    ->Arg(1228800)
    ->Unit(benchmark::kMicrosecond);

// The lazy sub-ranking the oracle builds instead: build one party's list,
// then read ranks 0..depth-1 as a Fagin merge does, reusing the last
// build's scratch as the oracle's query tasks do. The shapes are SUSY x0.5
// read to the fagin workload's mean phase-1 depth, the churn workload's
// 16,000 rows read to its depth, the whole list (as TA or a pre-filtered
// run can read it), and SUSY x32 read to the depth of a 1.23M-row CLI run.
void BM_SubRankingLazy(benchmark::State& state) {
  const auto scores = std::make_shared<const std::vector<double>>(
      SubRankingScores(static_cast<size_t>(state.range(0))));
  const auto depth = static_cast<size_t>(state.range(1));
  topk::RankedListSet::Scratch scratch;
  uint64_t sum = 0;
  for (auto _ : state) {
    auto set = topk::RankedListSet::BuildPresorted(
                   {scores}, std::vector<std::vector<uint32_t>>(1),
                   std::move(scratch))
                   .ValueOrDie();
    for (size_t r = 0; r < depth; ++r) sum += set.IdAtRank(0, r);
    benchmark::DoNotOptimize(sum);
    scratch = std::move(set).TakeScratch();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(depth));
}
BENCHMARK(BM_SubRankingLazy)
    ->ArgNames({"n", "depth"})
    ->Args({19200, 1155})
    ->Args({16000, 2953})
    ->Args({19200, 19200})
    ->Args({1228800, 12432})
    ->Unit(benchmark::kMicrosecond);

// CRC-32 over one buffer, as ReliableChannel computes it to frame every send
// and again to verify every receive. 64 bytes is the shortest input the
// folding path takes (a small id chunk); 128 KiB is a ciphertext-sized
// frame. bytes_per_second is the comparable figure across sizes.
void Crc32Body(benchmark::State& state, size_t n) {
  Rng rng(31);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    uint32_t crc = Crc32(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
  SetIsaCounter(state);
}

void BM_Crc32(benchmark::State& state) {
  Crc32Body(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(131072);

// ---------------------------------------------------------------------------
// End-to-end encrypted-KNN query (BASE mode: encrypt-all, the paper's
// dominant cost). Reported time covers Run() over `kQueries` queries; the
// per-query latency is time / kQueries.
// ---------------------------------------------------------------------------

// Shared runner: BASE-mode Run() with a configurable CKKS packing mode and
// query grouping. Reports ciphertext operations (encrypt + add + decrypt,
// HeOpStats `*_ops`) and packed slots per query as user counters, so the
// packed-vs-scalar and grouped-vs-ungrouped op reductions are visible in the
// JSON artifact next to the wall-clock numbers.
void RunEncKnnBench(benchmark::State& state, size_t queries,
                    he::CkksPacking packing, size_t query_group) {
  DistanceFixture f(static_cast<size_t>(state.range(0)), 16, 4);
  he::CkksParams params;
  params.poly_degree = 1024;
  auto backend = he::CreateCkksBackend(params, 5, packing).MoveValueUnsafe();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  vfl::FederatedKnnOracle oracle(&f.train, &f.partition, backend.get(),
                                 &network, &cost, &clock);
  vfl::FedKnnConfig config;
  config.mode = vfl::KnnOracleMode::kBase;
  config.k = 10;
  config.num_queries = queries;
  config.query_group = query_group;
  uint64_t ct_ops = 0;
  uint64_t values = 0;
  for (auto _ : state) {
    vfl::FedKnnStats stats;
    auto result = oracle.Run(config, &stats);
    benchmark::DoNotOptimize(result);
    ct_ops = stats.he_ops.encrypt_ops + stats.he_ops.add_ops +
             stats.he_ops.decrypt_ops;
    values = stats.he_ops.values_encrypted;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(queries));
  state.counters["ct_ops_per_query"] =
      static_cast<double>(ct_ops) / static_cast<double>(queries);
  state.counters["slots_per_query"] =
      static_cast<double>(values) / static_cast<double>(queries);
}

void BM_EncKnnQuery(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/4, he::CkksPacking::kPacked,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQuery)->Arg(512)->Unit(benchmark::kMillisecond);

// The scalar-era layout (one value per ciphertext): what every query paid
// before slot packing. ct_ops_per_query here vs BM_EncKnnQuery's is the
// headline reduction of the batched HE API (hundreds of ciphertext ops vs
// single digits at these sizes).
void BM_EncKnnQueryScalar(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/1, he::CkksPacking::kScalar,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQueryScalar)->Arg(128)->Unit(benchmark::kMillisecond);

// Cross-query slot batching (FedKnnConfig::query_group = 0 auto-fits the
// slot count): at 128 rows the candidate vectors (127 values) underfill the
// 1,024 slots, so all 8 queries share one packed aggregation round.
void BM_EncKnnQueryGrouped(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/8, he::CkksPacking::kPacked,
                 /*query_group=*/0);
}
BENCHMARK(BM_EncKnnQueryGrouped)->Arg(128)->Unit(benchmark::kMillisecond);

// Ungrouped control at the grouped benchmark's size, so the grouped speedup
// is an apples-to-apples wall-clock ratio in the same JSON artifact.
void BM_EncKnnQueryUngrouped(benchmark::State& state) {
  RunEncKnnBench(state, /*queries=*/8, he::CkksPacking::kPacked,
                 /*query_group=*/1);
}
BENCHMARK(BM_EncKnnQueryUngrouped)->Arg(128)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Per-ISA pinned variants (scalar vs SIMD rows in one run)
// ---------------------------------------------------------------------------

// Wraps a bench body so the whole run executes with dispatch pinned to `isa`
// (restored afterwards). Only registered for ISAs the host supports, so every
// emitted row is a real measurement, never a silent fallback.
template <typename Body>
auto PinnedTo(simd::Isa isa, Body body) {
  return [isa, body](benchmark::State& state) {
    const simd::Isa prev = simd::ActiveIsa();
    simd::SetActiveIsa(isa);
    body(state);
    simd::SetActiveIsa(prev);
  };
}

// The dispatched rows whose names carry an argument label, and the ISA-pinned
// variants of every ISA-sensitive row.
void RegisterRows() {
  benchmark::RegisterBenchmark("BM_NttForward/4096/bits:50", NttForward50Body);
  benchmark::RegisterBenchmark("BM_NttInverse/4096/bits:50", NttInverse50Body);
  const simd::Isa widest = simd::DetectCpuIsa();
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (isa > widest) continue;
    const std::string tag = std::string("/isa:") + simd::IsaName(isa);
    benchmark::RegisterBenchmark(
        ("BM_NttForward/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { NttForwardBody(s, 4096, 54); }));
    benchmark::RegisterBenchmark(
        ("BM_NttInverse/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { NttInverseBody(s, 4096, 54); }));
    benchmark::RegisterBenchmark(("BM_NttForward/4096/bits:50" + tag).c_str(),
                                 PinnedTo(isa, NttForward50Body));
    benchmark::RegisterBenchmark(("BM_NttInverse/4096/bits:50" + tag).c_str(),
                                 PinnedTo(isa, NttInverse50Body));
    benchmark::RegisterBenchmark(
        ("BM_CkksKeyProduct/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { CkksKeyProductBody(s, 4096); }));
    benchmark::RegisterBenchmark(
        ("BM_CkksEncode/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { CkksEncodeBody(s, 4096); }));
    benchmark::RegisterBenchmark(
        ("BM_CkksDecode/4096" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { CkksDecodeBody(s, 4096); }));
    benchmark::RegisterBenchmark(
        ("BM_DotProduct/1024" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) { DotProductBody(s, 1024); }));
    // 256-row (cache-resident) size: the 2000-row block is bandwidth-bound,
    // so the scalar-vs-SIMD ratio there measures the memory system, not the
    // kernels.
    benchmark::RegisterBenchmark(
        ("BM_BlockSquaredDistances/256" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) {
          BlockSquaredDistancesBody(s, 256);
        }));
    benchmark::RegisterBenchmark(
        ("BM_BlockSquaredDistances/2000" + tag).c_str(),
        PinnedTo(isa, [](benchmark::State& s) {
          BlockSquaredDistancesBody(s, 2000);
        }));
    // A party block of the oracle: a churn shard's 16,000 rows over 2, 3 or
    // 5 columns (the AVX-512 narrow-block kernel's regime).
    for (size_t cols : {size_t{2}, size_t{3}, size_t{5}}) {
      benchmark::RegisterBenchmark(
          ("BM_BlockSquaredDistances/16000/cols:" + std::to_string(cols) + tag)
              .c_str(),
          PinnedTo(isa, [cols](benchmark::State& s) {
            BlockSquaredDistancesBody(s, 16000, cols);
          }));
    }
    for (size_t n : {size_t{64}, size_t{131072}}) {
      benchmark::RegisterBenchmark(
          ("BM_Crc32/" + std::to_string(n) + tag).c_str(),
          PinnedTo(isa, [n](benchmark::State& s) { Crc32Body(s, n); }));
    }
  }
}

// Gives every row the user counters that any row of this binary sets. The
// CSV reporter takes its columns from the first row it prints and aborts on
// a later row with a counter that row lacked, so a row reports what it does
// not measure as a placeholder: isa = -1 where it does not dispatch by ISA,
// and 0 ciphertext ops and slots where it runs no encrypted query.
class UniformCounters : public benchmark::BenchmarkReporter {
 public:
  explicit UniformCounters(benchmark::BenchmarkReporter* inner)
      : inner_(inner) {}

  bool ReportContext(const Context& context) override {
    return inner_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    std::vector<Run> padded = runs;
    for (Run& run : padded) {
      run.counters.try_emplace("isa", -1.0);
      run.counters.try_emplace("ct_ops_per_query", 0.0);
      run.counters.try_emplace("slots_per_query", 0.0);
    }
    inner_->ReportRuns(padded);
  }
  void Finalize() override { inner_->Finalize(); }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> inner_;
};

}  // namespace
}  // namespace vfps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  vfps::RegisterRows();
  vfps::UniformCounters display(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return 0;
}
