// Slot-packing coverage for the batched HE API (PR 6): encode -> encrypt ->
// add -> decrypt round trips across the slot-boundary sizes, the
// batched-vs-scalar CKKS differential, ragged-tail masking, the
// ciphertext-vs-slot accounting split in HeOpStats / the he.* counters, and
// the BASE-mode cross-query grouping in FederatedKnnOracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "he/backend.h"
#include "he/ckks.h"
#include "obs/metrics.h"
#include "vfl/fed_knn.h"

namespace vfps::he {
namespace {

// All CKKS tests in this file run n = 1024 -> 1024 slots (one value per
// coefficient), so multi-chunk paths are cheap to exercise.
constexpr size_t kSlots = 1024;

CkksParams SmallParams() {
  CkksParams params;
  params.poly_degree = kSlots;
  return params;
}

std::unique_ptr<HeBackend> PackedBackend(uint64_t seed) {
  return CreateCkksBackend(SmallParams(), seed).MoveValueUnsafe();
}

std::unique_ptr<HeBackend> ScalarBackend(uint64_t seed) {
  return CreateCkksBackend(SmallParams(), seed, CkksPacking::kScalar)
      .MoveValueUnsafe();
}

std::vector<double> TestVector(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(len);
  for (double& x : v) x = rng.Uniform(-100.0, 100.0);
  return v;
}

// Round-trip fuzz across the sizes that straddle every chunking boundary:
// 1 (minimal), slots-1 / slots / slots+1 (the boundary itself), and
// 3*slots (multiple full chunks). Checks values AND the ciphertext/slot
// accounting: ceil(len / slots) ciphertexts, len slots.
TEST(SlotBatching, RoundTripAcrossSlotBoundaries) {
  auto be = PackedBackend(101);
  ASSERT_EQ(be->SlotsPerCiphertext(), kSlots);
  const size_t sizes[] = {1, kSlots - 1, kSlots, kSlots + 1, 3 * kSlots};
  uint64_t expected_cts = 0;
  uint64_t expected_values = 0;
  for (size_t len : sizes) {
    const auto values = TestVector(len, 7 + len);
    auto enc = be->Encrypt(values);
    ASSERT_TRUE(enc.ok()) << enc.status().ToString();
    EXPECT_EQ(enc->count, len);
    EXPECT_EQ(enc->ByteSize(), be->CiphertextBytes(len));
    auto dec = be->Decrypt(*enc);
    ASSERT_TRUE(dec.ok()) << dec.status().ToString();
    ASSERT_EQ(dec->size(), len);
    for (size_t i = 0; i < len; ++i) {
      EXPECT_NEAR((*dec)[i], values[i], 1e-3) << "len " << len << " slot " << i;
    }
    expected_cts += (len + kSlots - 1) / kSlots;
    expected_values += len;
    EXPECT_EQ(be->stats().encrypt_ops, expected_cts);
    EXPECT_EQ(be->stats().values_encrypted, expected_values);
    EXPECT_EQ(be->stats().decrypt_ops, expected_cts);
    EXPECT_EQ(be->stats().values_decrypted, expected_values);
  }
}

// The packed and scalar layouts are different ciphertext streams over the
// same plaintext: every slot must agree between the two within (twice) the
// CKKS tolerance. This is the differential that licenses the packed fast
// path — and it quantifies the win: 1 ciphertext vs `len` ciphertexts.
TEST(SlotBatching, BatchedVsScalarDifferential) {
  auto packed = PackedBackend(11);
  auto scalar = ScalarBackend(12);
  EXPECT_EQ(scalar->SlotsPerCiphertext(), 1u);
  const size_t len = 96;
  const size_t parties = 3;
  std::vector<std::vector<double>> plain(parties);
  std::vector<EncryptedVector> enc_packed, enc_scalar;
  for (size_t pi = 0; pi < parties; ++pi) {
    plain[pi] = TestVector(len, 400 + pi);
    enc_packed.push_back(packed->Encrypt(plain[pi]).MoveValueUnsafe());
    enc_scalar.push_back(scalar->Encrypt(plain[pi]).MoveValueUnsafe());
  }
  std::vector<const EncryptedVector*> pp, sp;
  for (size_t pi = 0; pi < parties; ++pi) {
    pp.push_back(&enc_packed[pi]);
    sp.push_back(&enc_scalar[pi]);
  }
  auto dec_packed = packed->Decrypt(packed->Sum(pp).MoveValueUnsafe());
  auto dec_scalar = scalar->Decrypt(scalar->Sum(sp).MoveValueUnsafe());
  ASSERT_TRUE(dec_packed.ok() && dec_scalar.ok());
  ASSERT_EQ(dec_packed->size(), len);
  ASSERT_EQ(dec_scalar->size(), len);
  for (size_t i = 0; i < len; ++i) {
    double expected = 0.0;
    for (const auto& v : plain) expected += v[i];
    EXPECT_NEAR((*dec_packed)[i], expected, 2e-2);
    EXPECT_NEAR((*dec_scalar)[i], expected, 2e-2);
    EXPECT_NEAR((*dec_packed)[i], (*dec_scalar)[i], 4e-2);
  }
  // The headline ciphertext-op reduction: per party, the packed layout spent
  // 1 encryption where the scalar layout spent `len`.
  EXPECT_EQ(packed->stats().encrypt_ops, parties);
  EXPECT_EQ(scalar->stats().encrypt_ops, parties * len);
  EXPECT_EQ(packed->stats().values_encrypted,
            scalar->stats().values_encrypted);
}

// The encoder zero-masks the slots past values.size(): decoding a wider
// window than was encoded must return ~0 in the tail, even after
// homomorphic additions (0 + 0 = 0 slot-wise). This is what makes ragged
// final chunks safe to aggregate.
TEST(SlotBatching, RaggedTailSlotsAreZeroMasked) {
  auto ctx = CkksContext::Create(SmallParams()).MoveValueUnsafe();
  Rng rng(55);
  auto sk = ctx->GenerateSecretKey(&rng);
  auto pk = ctx->GeneratePublicKey(sk, &rng);
  const auto values = TestVector(5, 66);
  auto a = ctx->EncryptVector(pk, values, &rng).MoveValueUnsafe();
  auto b = ctx->EncryptVector(pk, values, &rng).MoveValueUnsafe();
  ASSERT_TRUE(ctx->AddInPlaceCt(&a, b).ok());
  auto dec = ctx->DecryptVector(sk, a, kSlots);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), kSlots);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR((*dec)[i], 2.0 * values[i], 1e-2);
  }
  for (size_t i = 5; i < kSlots; ++i) {
    EXPECT_NEAR((*dec)[i], 0.0, 1e-2) << "tail slot " << i << " not masked";
  }
}

// Multi-chunk homomorphic sums: the ragged tail lives in the LAST chunk;
// summing must line chunks up (chunk c adds to chunk c) and the decoded
// output must stop at count values.
TEST(SlotBatching, MultiChunkSumAlignsChunks) {
  auto be = PackedBackend(77);
  const size_t len = kSlots + 37;  // 2 chunks, second one ragged
  const auto va = TestVector(len, 1);
  const auto vb = TestVector(len, 2);
  auto ea = be->Encrypt(va).MoveValueUnsafe();
  auto eb = be->Encrypt(vb).MoveValueUnsafe();
  auto sum = be->Sum({&ea, &eb});
  ASSERT_TRUE(sum.ok());
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), len);
  for (size_t i = 0; i < len; ++i) {
    EXPECT_NEAR((*dec)[i], va[i] + vb[i], 2e-3);
  }
  // 2 ciphertext adds (one per chunk) carrying len slot-wise additions.
  EXPECT_EQ(be->stats().add_ops, 2u);
  EXPECT_EQ(be->stats().values_added, len);
}

// The `.values` counters (slots) and `.count` counters (ciphertexts) must
// both match the backend's own stats for decrypt and add, mirroring the
// existing encrypt-side contract in test_he_roundtrip_fuzz.
TEST(SlotBatching, SlotAndCiphertextCountersSplit) {
  auto packed = PackedBackend(3);
  auto scalar = ScalarBackend(4);
  struct Case {
    HeBackend* be;
    uint64_t expect_enc_ops;
  } cases[] = {{packed.get(), 1}, {scalar.get(), 20}};
  for (auto& c : cases) {
    obs::MetricsRegistry reg;
    c.be->ResetStats();
    c.be->set_metrics(&reg);
    const auto v = TestVector(20, 9);
    auto ea = c.be->Encrypt(v).MoveValueUnsafe();
    auto eb = c.be->Encrypt(v).MoveValueUnsafe();
    auto sum = c.be->Sum({&ea, &eb}).MoveValueUnsafe();
    auto dec = c.be->Decrypt(sum);
    ASSERT_TRUE(dec.ok());
    const HeOpStats& s = c.be->stats();
    EXPECT_EQ(s.encrypt_ops, 2 * c.expect_enc_ops);
    EXPECT_EQ(s.values_encrypted, 40u);
    EXPECT_EQ(s.add_ops, c.expect_enc_ops);
    EXPECT_EQ(s.values_added, 20u);
    EXPECT_EQ(s.decrypt_ops, c.expect_enc_ops);
    EXPECT_EQ(s.values_decrypted, 20u);
    EXPECT_EQ(reg.CounterValue("he.encrypt.count"), s.encrypt_ops);
    EXPECT_EQ(reg.CounterValue("he.encrypt.values"), s.values_encrypted);
    EXPECT_EQ(reg.CounterValue("he.decrypt.count"), s.decrypt_ops);
    EXPECT_EQ(reg.CounterValue("he.decrypt.values"), s.values_decrypted);
    EXPECT_EQ(reg.CounterValue("he.add.count"), s.add_ops);
    EXPECT_EQ(reg.CounterValue("he.add.values"), s.values_added);
    c.be->set_metrics(nullptr);
  }
}

TEST(SlotBatching, PaillierAndPlainSlotContracts) {
  auto paillier =
      CreatePaillierBackend(/*modulus_bits=*/256, /*fractional_bits=*/20, 5)
          .MoveValueUnsafe();
  EXPECT_EQ(paillier->SlotsPerCiphertext(), 1u);
  auto plain = CreatePlainBackend();
  EXPECT_EQ(plain->SlotsPerCiphertext(), std::numeric_limits<size_t>::max());
  // The loop adapter still satisfies the vector API bit-for-bit.
  const auto v = TestVector(6, 44);
  for (HeBackend* be : {paillier.get(), plain.get()}) {
    auto enc = be->Encrypt(v).MoveValueUnsafe();
    auto dec = be->Decrypt(enc);
    ASSERT_TRUE(dec.ok()) << be->name();
    ASSERT_EQ(dec->size(), v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR((*dec)[i], v[i], 1e-5) << be->name();
    }
    EXPECT_EQ(be->stats().values_decrypted, v.size()) << be->name();
  }
}

// Scalar-mode forks stay scalar (the ablation would silently measure the
// packed path otherwise) and share key material with the parent.
TEST(SlotBatching, ForkPreservesPackingMode) {
  auto scalar = ScalarBackend(21);
  auto fork = scalar->Fork(99).MoveValueUnsafe();
  EXPECT_EQ(fork->SlotsPerCiphertext(), 1u);
  auto enc = fork->Encrypt({1.5, -2.5});
  ASSERT_TRUE(enc.ok());
  auto dec = scalar->Decrypt(*enc);  // parent's secret key opens fork's cts
  ASSERT_TRUE(dec.ok());
  EXPECT_NEAR((*dec)[0], 1.5, 1e-3);
  EXPECT_NEAR((*dec)[1], -2.5, 1e-3);
}

}  // namespace
}  // namespace vfps::he

namespace vfps::vfl {
namespace {

struct KnnFixture {
  data::Dataset train;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;

  static KnnFixture Make(size_t rows, bool ckks) {
    KnnFixture f;
    data::SyntheticConfig config;
    config.num_samples = rows;
    config.num_features = 12;
    config.num_informative = 7;
    config.num_redundant = 3;
    config.seed = 31;
    f.train = data::GenerateClassification(config)->data;
    f.partition = *data::RandomVerticalPartition(12, 4, 9);
    if (ckks) {
      he::CkksParams params;
      params.poly_degree = 1024;
      f.backend = he::CreateCkksBackend(params, 123).MoveValueUnsafe();
    } else {
      f.backend = he::CreatePlainBackend();
    }
    return f;
  }

  Result<std::vector<QueryNeighborhood>> Run(size_t query_group,
                                             FedKnnStats* stats) {
    FederatedKnnOracle oracle(&train, &partition, backend.get(), &network,
                              &cost, &clock);
    FedKnnConfig config;
    config.mode = KnnOracleMode::kBase;
    config.k = 5;
    config.num_queries = 8;
    config.query_group = query_group;
    return oracle.Run(config, stats);
  }
};

void ExpectSameNeighborhoods(const std::vector<QueryNeighborhood>& a,
                             const std::vector<QueryNeighborhood>& b,
                             double dt_tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query_row, b[i].query_row);
    EXPECT_EQ(a[i].neighbors, b[i].neighbors) << "query " << i;
    ASSERT_EQ(a[i].per_party_dt.size(), b[i].per_party_dt.size());
    for (size_t p = 0; p < a[i].per_party_dt.size(); ++p) {
      EXPECT_NEAR(a[i].per_party_dt[p], b[i].per_party_dt[p], dt_tol);
    }
  }
}

// The grouped BASE path is a pure protocol-layout change: with the exact
// (plain) backend the neighborhoods must be identical to the per-query
// protocol, for every group size including the auto mode.
TEST(SlotBatchedBase, GroupedMatchesUngroupedExactly) {
  auto baseline_f = KnnFixture::Make(60, /*ckks=*/false);
  FedKnnStats base_stats;
  auto baseline = baseline_f.Run(1, &base_stats);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t group : {size_t{3}, size_t{8}, size_t{0} /*auto*/}) {
    auto f = KnnFixture::Make(60, /*ckks=*/false);
    FedKnnStats stats;
    auto grouped = f.Run(group, &stats);
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    ExpectSameNeighborhoods(*baseline, *grouped, 0.0);
    EXPECT_EQ(stats.queries, base_stats.queries);
    EXPECT_EQ(stats.candidates_encrypted, base_stats.candidates_encrypted);
  }
}

// Same differential under real CKKS: results agree (approximate arithmetic
// never flips a neighbor at these magnitudes), and the grouped run provably
// spends fewer ciphertext operations — the acceptance criterion of the
// slot-batching PR. 8 queries x 59 candidates over 1024 slots pack into
// ceil(472/1024) = 1 chunk per party instead of 8.
TEST(SlotBatchedBase, CkksGroupedFewerCiphertextOps) {
  auto ungrouped_f = KnnFixture::Make(60, /*ckks=*/true);
  FedKnnStats ungrouped_stats;
  auto ungrouped = ungrouped_f.Run(1, &ungrouped_stats);
  ASSERT_TRUE(ungrouped.ok()) << ungrouped.status().ToString();

  auto grouped_f = KnnFixture::Make(60, /*ckks=*/true);
  FedKnnStats grouped_stats;
  auto grouped = grouped_f.Run(0, &grouped_stats);  // auto: 1024/59 -> 8 queries
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();

  ExpectSameNeighborhoods(*ungrouped, *grouped, 1e-6);

  // Ungrouped: 8 queries x (4 enc + 3 add + 1 dec) = 64 ciphertext ops.
  // Grouped:   1 round  x (4 enc + 3 add + 1 dec) =  8 ciphertext ops.
  const he::HeOpStats& u = ungrouped_stats.he_ops;
  const he::HeOpStats& g = grouped_stats.he_ops;
  EXPECT_EQ(u.encrypt_ops, 32u);
  EXPECT_EQ(g.encrypt_ops, 4u);
  EXPECT_EQ(u.add_ops, 24u);
  EXPECT_EQ(g.add_ops, 3u);
  EXPECT_EQ(u.decrypt_ops, 8u);
  EXPECT_EQ(g.decrypt_ops, 1u);
  // The slot-level work is identical — only the packing changed.
  EXPECT_EQ(u.values_encrypted, g.values_encrypted);
  EXPECT_EQ(u.values_added, g.values_added);
  EXPECT_EQ(u.values_decrypted, g.values_decrypted);
  const uint64_t u_ct = u.encrypt_ops + u.add_ops + u.decrypt_ops;
  const uint64_t g_ct = g.encrypt_ops + g.add_ops + g.decrypt_ops;
  EXPECT_GE(u_ct, 8 * g_ct);  // >= 8x fewer ciphertext ops when grouped
}

// Grouping composes with the thread pool: the per-unit task isolation must
// keep results identical at any thread count.
TEST(SlotBatchedBase, GroupedDeterministicAcrossThreadCounts) {
  auto serial_f = KnnFixture::Make(60, /*ckks=*/true);
  auto serial = serial_f.Run(4, nullptr);
  ASSERT_TRUE(serial.ok());

  auto pooled_f = KnnFixture::Make(60, /*ckks=*/true);
  ThreadPool pool(4);
  pooled_f.backend->set_thread_pool(&pool);
  FederatedKnnOracle oracle(&pooled_f.train, &pooled_f.partition,
                            pooled_f.backend.get(), &pooled_f.network,
                            &pooled_f.cost, &pooled_f.clock, &pool);
  FedKnnConfig config;
  config.mode = KnnOracleMode::kBase;
  config.k = 5;
  config.num_queries = 8;
  config.query_group = 4;
  auto pooled = oracle.Run(config, nullptr);
  ASSERT_TRUE(pooled.ok());
  ExpectSameNeighborhoods(*serial, *pooled, 0.0);
}

}  // namespace
}  // namespace vfps::vfl
