#include "he/ckks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/buffer.h"
#include "common/random.h"
#include "he/backend.h"
#include "simd/simd.h"

namespace vfps::he {
namespace {

CkksParams SmallParams() {
  CkksParams params;
  params.poly_degree = 1024;  // fast tests; production default is 4096
  params.prime_bits = {54, 54};
  params.scale = std::ldexp(1.0, 40);
  return params;
}

class CkksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ctx = CkksContext::Create(SmallParams());
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = *ctx;
    rng_ = std::make_unique<Rng>(2024);
    sk_ = ctx_->GenerateSecretKey(rng_.get());
    pk_ = ctx_->GeneratePublicKey(sk_, rng_.get());
  }

  std::shared_ptr<const CkksContext> ctx_;
  std::unique_ptr<Rng> rng_;
  CkksSecretKey sk_;
  CkksPublicKey pk_;
};

TEST_F(CkksTest, EncodeDecodeRoundTrip) {
  std::vector<double> values;
  Rng rng(7);
  for (size_t i = 0; i < ctx_->slot_count(); ++i) {
    values.push_back(rng.Uniform(-100.0, 100.0));
  }
  auto pt = ctx_->Encode(values, ctx_->params().scale);
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  auto decoded = ctx_->Decode(*pt, ctx_->params().scale, values.size());
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decoded)[i], values[i], 1e-6) << "slot " << i;
  }
}

TEST_F(CkksTest, EncryptDecryptRoundTrip) {
  std::vector<double> values = {1.5, -2.25, 1000.0, 0.0, -0.001, 42.42};
  auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct.ok()) << ct.status().ToString();
  auto decrypted = ctx_->DecryptVector(sk_, *ct, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-4) << "slot " << i;
  }
}

TEST_F(CkksTest, CiphertextHidesPlaintext) {
  // Two encryptions of the same value must differ (semantic security), and a
  // fresh ciphertext must not decrypt under a different key.
  std::vector<double> values = {3.0, 1.0};
  auto ct1 = ctx_->EncryptVector(pk_, values, rng_.get());
  auto ct2 = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct1.ok() && ct2.ok());
  EXPECT_NE(ct1->c0.residues, ct2->c0.residues);

  Rng other_rng(999);
  CkksSecretKey other_sk = ctx_->GenerateSecretKey(&other_rng);
  auto wrong = ctx_->DecryptVector(other_sk, *ct1, values.size());
  ASSERT_TRUE(wrong.ok());
  EXPECT_GT(std::abs((*wrong)[0] - values[0]), 1.0);
}

TEST_F(CkksTest, HomomorphicAddition) {
  std::vector<double> a = {1.0, 2.0, -3.5};
  std::vector<double> b = {10.0, -20.0, 0.25};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  auto cb = ctx_->EncryptVector(pk_, b, rng_.get());
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto sum = ctx_->Add(*ca, *cb);
  ASSERT_TRUE(sum.ok());
  auto decrypted = ctx_->DecryptVector(sk_, *sum, a.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], a[i] + b[i], 1e-4);
  }
}

TEST_F(CkksTest, ManyAdditionsAccumulateNoiseGracefully) {
  // Sum 20 encrypted copies of a ramp vector (matches the P <= 20 participants
  // in the scalability experiment).
  std::vector<double> values = {0.5, 1.0, 2.0, 4.0};
  auto acc = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(acc.ok());
  for (int i = 0; i < 19; ++i) {
    auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
    ASSERT_TRUE(ct.ok());
    ASSERT_TRUE(ctx_->AddInPlaceCt(&acc.ValueOrDie(), *ct).ok());
  }
  auto decrypted = ctx_->DecryptVector(sk_, *acc, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], 20.0 * values[i], 1e-3);
  }
}

TEST_F(CkksTest, ScaleMismatchRejected) {
  std::vector<double> v = {1.0};
  auto ca = ctx_->EncryptVector(pk_, v, rng_.get());
  ASSERT_TRUE(ca.ok());
  CkksCiphertext other = *ca;
  other.scale *= 2.0;
  EXPECT_FALSE(ctx_->Add(*ca, other).ok());
}

TEST_F(CkksTest, SerializationRoundTrip) {
  std::vector<double> values = {9.75, -1.25, 3.0};
  auto ct = ctx_->EncryptVector(pk_, values, rng_.get());
  ASSERT_TRUE(ct.ok());
  BinaryWriter writer;
  ctx_->SerializeCiphertext(*ct, &writer);
  EXPECT_EQ(writer.size(), ctx_->CiphertextByteSize());
  BinaryReader reader(writer.bytes());
  auto restored = ctx_->DeserializeCiphertext(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto decrypted = ctx_->DecryptVector(sk_, *restored, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-4);
  }
}

// Crafted wire bytes. SerializeCiphertext writes whatever it is given, so
// each case below breaks one field of a valid ciphertext and expects the
// decoder to reject it by name instead of decoding garbage.
class CkksDeserializeTest : public CkksTest {
 protected:
  CkksCiphertext Valid() {
    return ctx_->EncryptVector(pk_, {1.0, -2.0, 3.5}, rng_.get()).ValueOrDie();
  }

  Status Roundtrip(const CkksCiphertext& ct, int form_byte = -1) {
    BinaryWriter writer;
    ctx_->SerializeCiphertext(ct, &writer);
    std::vector<uint8_t> bytes = writer.TakeBytes();
    if (form_byte >= 0) bytes[sizeof(double)] = static_cast<uint8_t>(form_byte);
    BinaryReader reader(bytes);
    return ctx_->DeserializeCiphertext(&reader).status();
  }

  static void ExpectRejected(const Status& st, const std::string& field) {
    EXPECT_TRUE(st.IsProtocolError()) << st.ToString();
    EXPECT_NE(st.message().find(field), std::string::npos) << st.ToString();
  }
};

TEST_F(CkksDeserializeTest, ValidCiphertextPasses) {
  EXPECT_TRUE(Roundtrip(Valid()).ok());
}

TEST_F(CkksDeserializeTest, RejectsResidueNotBelowItsPrime) {
  for (size_t poly = 0; poly < 2; ++poly) {
    for (size_t prime = 0; prime < ctx_->rns().num_primes(); ++prime) {
      CkksCiphertext ct = Valid();
      RnsPoly& target = poly == 0 ? ct.c0 : ct.c1;
      target.residues[prime][17] = ctx_->rns().prime(prime);
      ExpectRejected(Roundtrip(ct), poly == 0 ? "c0 residue" : "c1 residue");
      target.residues[prime][17] = ~uint64_t{0};
      ExpectRejected(Roundtrip(ct), poly == 0 ? "c0 residue" : "c1 residue");
    }
  }
}

TEST_F(CkksDeserializeTest, RejectsMismatchedPrimeCounts) {
  CkksCiphertext ct = Valid();
  ct.c1.residues.pop_back();
  ExpectRejected(Roundtrip(ct), "c0 has 2 primes but c1 has 1");
  ct = Valid();
  ct.c0.residues.pop_back();
  ExpectRejected(Roundtrip(ct), "c0 has 1 primes but c1 has 2");
}

TEST_F(CkksDeserializeTest, RejectsNonFiniteOrNonPositiveScale) {
  for (double scale : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0}) {
    CkksCiphertext ct = Valid();
    ct.scale = scale;
    ExpectRejected(Roundtrip(ct), "scale");
  }
}

TEST_F(CkksDeserializeTest, RejectsUnknownFormByte) {
  ExpectRejected(Roundtrip(Valid(), /*form_byte=*/2), "form byte");
  EXPECT_TRUE(Roundtrip(Valid(), /*form_byte=*/0).ok());
}

TEST_F(CkksTest, EncodeOverCapacityFails) {
  std::vector<double> too_many(ctx_->slot_count() + 1, 1.0);
  EXPECT_FALSE(ctx_->EncryptVector(pk_, too_many, rng_.get()).ok());
}

TEST_F(CkksTest, EncodeOverflowingMagnitudeFails) {
  std::vector<double> huge = {1e30};
  EXPECT_FALSE(ctx_->EncryptVector(pk_, huge, rng_.get()).ok());
}

TEST(CkksParamsTest, RejectsBadParams) {
  CkksParams params;
  params.poly_degree = 4;
  EXPECT_FALSE(CkksContext::Create(params).ok());
  params = CkksParams{};
  params.prime_bits = {20};
  EXPECT_FALSE(CkksContext::Create(params).ok());
  params = CkksParams{};
  params.prime_bits = {60};
  EXPECT_FALSE(CkksContext::Create(params).ok());
  for (double sigma : {0.0, -1.0, std::nan(""), HUGE_VAL, 1e6}) {
    params = CkksParams{};
    params.poly_degree = 1024;
    params.noise_sigma = sigma;
    EXPECT_FALSE(CkksContext::Create(params).ok()) << "sigma=" << sigma;
  }
}

uint32_t ValuesDigest(const std::vector<double>& values) {
  Crc32Accumulator acc;
  acc.Update(std::span<const double>(values));
  return acc.value();
}

std::vector<double> UniformValues(uint64_t seed, size_t count, double lo,
                                  double hi) {
  Rng rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.Uniform(lo, hi);
  return values;
}

// The ISAs this host can run, scalar first. The default-prime twins below
// recompute their digests under each, since the IFMA kernels (AVX-512 on
// CPUs that have it, primes below 2^50) serve only the default primes, and
// the encoder checks below run under each too.
std::vector<simd::Isa> HostIsas() {
  std::vector<simd::Isa> isas;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (isa <= simd::DetectCpuIsa()) isas.push_back(isa);
  }
  return isas;
}

// Runs `check` once per host ISA with dispatch pinned to it.
template <typename Check>
void ForEachHostIsa(Check check) {
  const simd::Isa prev = simd::ActiveIsa();
  for (simd::Isa isa : HostIsas()) {
    simd::SetActiveIsa(isa);
    SCOPED_TRACE(simd::IsaName(isa));
    check();
  }
  simd::SetActiveIsa(prev);
}

// Coefficient encoding at n = 1024: every count 1..n round-trips through
// Encode and Decode to within half a unit of the scale, and leaves every
// coefficient from count on at exactly zero, so a ragged chunk decodes
// zeros past its values (the ragged-tail mask).
TEST(CkksEncodeTest, EveryCountRoundTripsAndZeroesTheTail) {
  CkksParams params;
  params.poly_degree = 1024;
  auto ctx = CkksContext::Create(params).ValueOrDie();
  const size_t n = ctx->slot_count();
  ASSERT_EQ(n, params.poly_degree);
  const auto values = UniformValues(404, n, -50.0, 50.0);
  const double half_unit = 0.5 / params.scale;
  ForEachHostIsa([&] {
    for (size_t count = 1; count <= n; ++count) {
      RnsPoly pt =
          ctx->Encode(std::span<const double>(values.data(), count), params.scale)
              .ValueOrDie();
      const auto decoded = ctx->Decode(pt, params.scale, n).ValueOrDie();
      FromNtt(ctx->rns(), &pt);
      for (size_t j = 0; j < count; ++j) {
        ASSERT_LE(std::abs(decoded[j] - values[j]), half_unit)
            << "count " << count << " coefficient " << j;
      }
      for (size_t j = count; j < n; ++j) {
        ASSERT_EQ(decoded[j], 0.0) << "count " << count << " coefficient " << j;
        for (const auto& residue : pt.residues) {
          ASSERT_EQ(residue[j], 0u) << "count " << count << " coefficient " << j;
        }
      }
    }
  });
}

// Ciphertext digests. The CRC32 values below were recorded when encryption
// moved to coefficient encoding (n values per ciphertext, no FFT); every
// serialized byte and every decrypted double must stay the same on every
// ISA and -O level.
struct CiphertextDigests {
  uint32_t ciphertexts;
  uint32_t decrypted;
};

CiphertextDigests DigestCiphertexts(size_t degree, std::vector<int> prime_bits) {
  CkksParams params;
  params.poly_degree = degree;
  params.prime_bits = std::move(prime_bits);
  if (params.prime_bits.size() == 1) params.scale = std::ldexp(1.0, 30);
  auto ctx = CkksContext::Create(params).ValueOrDie();
  const size_t slots = ctx->slot_count();
  Crc32Accumulator cts, values;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const CkksSecretKey sk = ctx->GenerateSecretKey(&rng);
    const CkksPublicKey pk = ctx->GeneratePublicKey(sk, &rng);
    // Full, ragged and single-value chunks.
    for (size_t count : {slots, slots / 3 + 1, size_t{1}}) {
      const auto plain = UniformValues(seed * 1000 + count, count, -100.0, 100.0);
      const CkksCiphertext ct = ctx->EncryptVector(pk, plain, &rng).ValueOrDie();
      BinaryWriter writer;
      ctx->SerializeCiphertext(ct, &writer);
      cts.Update(writer.bytes());
      const auto decrypted = ctx->DecryptVector(sk, ct, count).ValueOrDie();
      values.Update(std::span<const double>(decrypted));
    }
  }
  return {cts.value(), values.value()};
}

TEST(CkksCiphertextDigestTest, SerializedCiphertextsMatchPinnedDigests) {
  const CiphertextDigests small_two = DigestCiphertexts(1024, {54, 54});
  EXPECT_EQ(small_two.ciphertexts, 0x3C5CDDF3u);
  EXPECT_EQ(small_two.decrypted, 0xA0E17977u);
  const CiphertextDigests small_one = DigestCiphertexts(1024, {54});
  EXPECT_EQ(small_one.ciphertexts, 0x637EAE2Au);
  EXPECT_EQ(small_one.decrypted, 0x8D03C52Au);
  const CiphertextDigests full_two = DigestCiphertexts(4096, {54, 54});
  EXPECT_EQ(full_two.ciphertexts, 0x028A96B4u);
  EXPECT_EQ(full_two.decrypted, 0x7C25436Bu);
  const CiphertextDigests full_one = DigestCiphertexts(4096, {54});
  EXPECT_EQ(full_one.ciphertexts, 0xB704F94Eu);
  EXPECT_EQ(full_one.decrypted, 0xBD66C138u);
}

TEST(CkksCiphertextDigestTest, SerializedCiphertextsMatchPinnedDigestsAtDefaultPrimes) {
  ForEachHostIsa([] {
    const CiphertextDigests small = DigestCiphertexts(1024, CkksParams{}.prime_bits);
    EXPECT_EQ(small.ciphertexts, 0x9F7BFB37u);
    EXPECT_EQ(small.decrypted, 0xA0E17977u);
    const CiphertextDigests full = DigestCiphertexts(4096, CkksParams{}.prime_bits);
    EXPECT_EQ(full.ciphertexts, 0x4943CCF6u);
    EXPECT_EQ(full.decrypted, 0x7C25436Bu);
  });
}

// The in-place wire paths against the ciphertext paths they replace:
// EncryptToWire writes SerializeCiphertext's bytes for the ciphertext
// EncryptVector draws from the same stream, and DecryptViewInto of those
// bytes returns DecryptVector's doubles, on every host ISA, with two primes
// and with one.
TEST(CkksWireTest, WirePathsMatchTheCiphertextPaths) {
  ForEachHostIsa([] {
    for (std::vector<int> bits : {std::vector<int>{50, 50},
                                  std::vector<int>{54, 54},
                                  std::vector<int>{54}}) {
      CkksParams params;
      params.poly_degree = 1024;
      params.prime_bits = bits;
      if (bits.size() == 1) params.scale = std::ldexp(1.0, 30);
      auto ctx = CkksContext::Create(params).ValueOrDie();
      Rng keys(3);
      const CkksSecretKey sk = ctx->GenerateSecretKey(&keys);
      const CkksPublicKey pk = ctx->GeneratePublicKey(sk, &keys);
      for (size_t count : {ctx->slot_count(), size_t{5}, size_t{0}}) {
        const auto values = UniformValues(count + 9, count, -50.0, 50.0);
        Rng a(77), b(77);
        const CkksCiphertext ct = ctx->EncryptVector(pk, values, &a).ValueOrDie();
        BinaryWriter writer;
        ctx->SerializeCiphertext(ct, &writer);
        std::vector<uint8_t> wire(ctx->CiphertextByteSize() + 3);
        // At an odd offset, as inside a backend blob.
        ASSERT_TRUE(ctx->EncryptToWire(pk, values, &b, wire.data() + 3).ok());
        EXPECT_TRUE(std::equal(writer.bytes().begin(), writer.bytes().end(),
                               wire.begin() + 3))
            << bits.size() << " primes, count " << count;
        EXPECT_EQ(a.Next(), b.Next());
        BinaryReader reader(wire.data() + 3, ctx->CiphertextByteSize());
        const CkksCiphertextView view = ctx->ParseCiphertext(&reader).ValueOrDie();
        EXPECT_TRUE(reader.AtEnd());
        std::vector<double> got(count);
        ASSERT_TRUE(ctx->DecryptViewInto(sk, view, count, got.data()).ok());
        EXPECT_EQ(got, ctx->DecryptVector(sk, ct, count).ValueOrDie());
      }
    }
  });
}

struct BlobDigests {
  uint32_t encrypt, batched, sum, decrypted;
};

// Backend blobs at n = 4096 with two primes, packed mode.
BlobDigests DigestBackendBlobs(std::vector<int> prime_bits) {
  CkksParams params;
  params.prime_bits = std::move(prime_bits);
  auto backend = CreateCkksBackend(params, 77).ValueOrDie();
  const size_t slots = backend->SlotsPerCiphertext();
  const auto full = UniformValues(501, slots, -50.0, 50.0);
  const auto ragged = UniformValues(502, slots / 2 + 7, -50.0, 50.0);
  const auto multi = UniformValues(503, 2 * slots + 77, -50.0, 50.0);
  Crc32Accumulator encrypt;
  std::vector<EncryptedVector> blobs;
  for (const auto* values : {&full, &ragged, &multi}) {
    blobs.push_back(backend->Encrypt(*values).ValueOrDie());
    encrypt.Update(blobs.back().blob);
  }
  const auto batch = backend->EncryptBatch({full, ragged, multi}).ValueOrDie();
  Crc32Accumulator batched;
  for (const auto& v : batch) batched.Update(v.blob);
  const auto sum = backend->Sum({&blobs[2], &batch[2]}).ValueOrDie();
  const auto decrypted = backend->Decrypt(sum).ValueOrDie();
  return {encrypt.value(), batched.value(), Crc32(sum.blob),
          ValuesDigest(decrypted)};
}

TEST(CkksCiphertextDigestTest, BackendBlobsMatchPinnedDigests) {
  const BlobDigests d = DigestBackendBlobs({54, 54});
  EXPECT_EQ(d.encrypt, 0x8810307Fu);
  EXPECT_EQ(d.batched, 0xE94E42F9u);
  EXPECT_EQ(d.sum, 0x56A9B979u);
  EXPECT_EQ(d.decrypted, 0xEC227D6Bu);
}

TEST(CkksCiphertextDigestTest, BackendBlobsMatchPinnedDigestsAtDefaultPrimes) {
  ForEachHostIsa([] {
    const BlobDigests d = DigestBackendBlobs(CkksParams{}.prime_bits);
    EXPECT_EQ(d.encrypt, 0x2878DE4Cu);
    EXPECT_EQ(d.batched, 0xAD4D6792u);
    EXPECT_EQ(d.sum, 0x27234BA5u);
    EXPECT_EQ(d.decrypted, 0xEC227D6Bu);
  });
}

// Paillier and plain backend digests. The CRC32 values below were taken
// before the backends' batch hooks were folded into one shared batch path;
// every blob byte and every decrypted double must stay the same.
struct BackendDigests {
  uint32_t encrypt, batched, sum, decrypted;
};

BackendDigests DigestBackend(HeBackend* backend) {
  const auto small = UniformValues(601, 5, -50.0, 50.0);
  const auto medium = UniformValues(602, 17, -50.0, 50.0);
  const auto large = UniformValues(603, 40, -50.0, 50.0);
  Crc32Accumulator encrypt;
  std::vector<EncryptedVector> blobs;
  for (const auto* values : {&small, &medium, &large}) {
    blobs.push_back(backend->Encrypt(*values).ValueOrDie());
    encrypt.Update(blobs.back().blob);
  }
  const auto batch = backend->EncryptBatch({small, medium, large}).ValueOrDie();
  Crc32Accumulator batched;
  for (const auto& v : batch) batched.Update(v.blob);
  const auto sum = backend->Sum({&blobs[2], &batch[2]}).ValueOrDie();
  return {encrypt.value(), batched.value(), Crc32(sum.blob),
          ValuesDigest(backend->Decrypt(sum).ValueOrDie())};
}

TEST(BackendDigestTest, PaillierBlobsMatchPinnedDigests) {
  auto backend = CreatePaillierBackend(/*modulus_bits=*/256,
                                       /*fractional_bits=*/20, /*seed=*/88)
                     .ValueOrDie();
  const BackendDigests d = DigestBackend(backend.get());
  EXPECT_EQ(d.encrypt, 0xA918A67Bu);
  EXPECT_EQ(d.batched, 0x5F215D4Cu);
  EXPECT_EQ(d.sum, 0x1BE4E208u);
  EXPECT_EQ(d.decrypted, 0xE346178Du);
}

TEST(BackendDigestTest, PlainBlobsMatchPinnedDigests) {
  auto backend = CreatePlainBackend();
  const BackendDigests d = DigestBackend(backend.get());
  EXPECT_EQ(d.encrypt, 0xBB1EA55Cu);
  EXPECT_EQ(d.batched, 0xBB1EA55Cu);
  EXPECT_EQ(d.sum, 0x1AA7D4D6u);
  EXPECT_EQ(d.decrypted, 0xF7BAC1E4u);
}

TEST(CkksParamsTest, SinglePrimeContextWorks) {
  CkksParams params;
  params.poly_degree = 1024;
  params.prime_bits = {54};
  params.scale = std::ldexp(1.0, 30);
  auto ctx = CkksContext::Create(params);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  Rng rng(5);
  auto sk = (*ctx)->GenerateSecretKey(&rng);
  auto pk = (*ctx)->GeneratePublicKey(sk, &rng);
  std::vector<double> values = {1.0, 2.5, -3.0};
  auto ct = (*ctx)->EncryptVector(pk, values, &rng);
  ASSERT_TRUE(ct.ok());
  auto decrypted = (*ctx)->DecryptVector(sk, *ct, values.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], values[i], 1e-3);
  }
}

// Single-prime contexts whose Q/2 lies below the scaled coefficients: the
// encoder used to accept them (it checked only 2^62) and they wrapped mod Q,
// so {1, 2, 3} decrypted to about (0.008, -0.030, 0.028) with no error.
// A coefficient is the value times the scale, so {40} (Q/2 ~ 2^39, below
// 1.0 * 2^40) is rejected as well.
TEST(CkksParamsTest, EncoderRejectsCoefficientsThatWrapModQ) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  for (const std::vector<int>& bits :
       std::vector<std::vector<int>>{{30}, {40}, {54}, {30, 30}}) {
    CkksParams params;
    params.poly_degree = 1024;
    params.prime_bits = bits;
    params.scale = std::ldexp(1.0, 40);
    auto ctx = CkksContext::Create(params).ValueOrDie();
    Rng rng(5);
    const CkksSecretKey sk = ctx->GenerateSecretKey(&rng);
    const CkksPublicKey pk = ctx->GeneratePublicKey(sk, &rng);
    ForEachHostIsa([&] {
      Rng enc_rng(6);
      auto ct = ctx->EncryptVector(pk, values, &enc_rng);
      if (bits.size() == 1 && bits[0] <= 40) {
        ASSERT_FALSE(ct.ok());
        EXPECT_TRUE(ct.status().IsOutOfRange()) << ct.status().ToString();
        EXPECT_NE(ct.status().message().find("overflows encode bound"),
                  std::string::npos)
            << ct.status().ToString();
        return;
      }
      // {54} and two primes put Q/2 far above 3 * 2^40.
      ASSERT_TRUE(ct.ok()) << ct.status().ToString();
      const auto decrypted = ctx->DecryptVector(sk, *ct, values.size());
      ASSERT_TRUE(decrypted.ok());
      for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_NEAR((*decrypted)[i], values[i], 1e-3) << "slot " << i;
      }
    });
  }
}

// The encode bound at the default parameters: Q/2 ~ 2^99, so the bound is
// 2^62, which the scale 2^40 puts at |v| = 2^22. The largest double below
// it is accepted and round-trips; 2^22 itself, NaN and the infinities are
// rejected with the bound's OutOfRange message and consume no randomness.
// Each sits in a lane past the first vector, on every host ISA.
TEST(CkksParamsTest, DefaultEncodeBoundIsExact) {
  auto ctx = CkksContext::Create(CkksParams{}).ValueOrDie();
  Rng rng(8);
  const CkksSecretKey sk = ctx->GenerateSecretKey(&rng);
  const CkksPublicKey pk = ctx->GeneratePublicKey(sk, &rng);
  const double limit = std::ldexp(1.0, 62) / ctx->params().scale;
  const double largest = std::nextafter(limit, 0.0);
  constexpr size_t kLane = 19;  // past the first 4- and 8-lane vectors
  ForEachHostIsa([&] {
    for (double v : {largest, -largest}) {
      std::vector<double> values(32, 1.0);
      values[kLane] = v;
      Rng enc(9);
      auto ct = ctx->EncryptVector(pk, values, &enc);
      ASSERT_TRUE(ct.ok()) << ct.status().ToString();
      const auto got = ctx->DecryptVector(sk, *ct, values.size()).ValueOrDie();
      EXPECT_NEAR(got[kLane], v, 1e-6);
      EXPECT_NEAR(got[0], 1.0, 1e-6);
    }
    for (double v : {limit, -limit, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      std::vector<double> values(32, 1.0);
      values[kLane] = v;
      Rng enc(9), fresh(9);
      auto ct = ctx->EncryptVector(pk, values, &enc);
      ASSERT_FALSE(ct.ok()) << v;
      EXPECT_TRUE(ct.status().IsOutOfRange()) << ct.status().ToString();
      EXPECT_NE(ct.status().message().find("overflows encode bound"),
                std::string::npos)
          << ct.status().ToString();
      EXPECT_EQ(enc.Next(), fresh.Next()) << v;
    }
  });
}

// Round-trip fidelity of the default primes ({50, 50}) against the old
// default ({54, 54}) on the same seeds and inputs: full and ragged vectors
// and an 8-way homomorphic sum, values in +-100, n = 4096. Each value is
// read from one coefficient, so its error is that coefficient's noise over
// the scale: ~1e-9 at both prime sets. The canonical-embedding encoder
// spread the noise of every coefficient over every slot and read 5.6e-8,
// 5.4e-8 and 1.7e-7 here, so the 1e-8 bound also catches a return to it.
TEST(CkksFidelityTest, DefaultPrimesKeepTheRoundTripBound) {
  for (const std::vector<int>& bits :
       std::vector<std::vector<int>>{{50, 50}, {54, 54}}) {
    CkksParams params;
    params.prime_bits = bits;
    auto backend = CreateCkksBackend(params, 2024).ValueOrDie();
    const size_t slots = backend->SlotsPerCiphertext();
    double full_err = 0.0, ragged_err = 0.0, sum_err = 0.0;
    const auto max_err = [](const std::vector<double>& got,
                            const std::vector<double>& want) {
      EXPECT_EQ(got.size(), want.size());
      double err = 0.0;
      for (size_t i = 0; i < got.size(); ++i) {
        err = std::max(err, std::abs(got[i] - want[i]));
      }
      return err;
    };
    for (uint64_t seed = 0; seed < 4; ++seed) {
      const auto full = UniformValues(700 + seed, slots, -100.0, 100.0);
      const auto ragged =
          UniformValues(800 + seed, 2 * slots + 77, -100.0, 100.0);
      full_err = std::max(
          full_err,
          max_err(backend->Decrypt(backend->Encrypt(full).ValueOrDie())
                      .ValueOrDie(),
                  full));
      ragged_err = std::max(
          ragged_err,
          max_err(backend->Decrypt(backend->Encrypt(ragged).ValueOrDie())
                      .ValueOrDie(),
                  ragged));
      std::vector<EncryptedVector> addends;
      std::vector<double> expected(slots, 0.0);
      for (uint64_t j = 0; j < 8; ++j) {
        const auto v = UniformValues(900 + 8 * seed + j, slots, -100.0, 100.0);
        for (size_t i = 0; i < slots; ++i) expected[i] += v[i];
        addends.push_back(backend->Encrypt(v).ValueOrDie());
      }
      std::vector<const EncryptedVector*> ptrs;
      for (const auto& a : addends) ptrs.push_back(&a);
      const auto sum = backend->Sum(ptrs).ValueOrDie();
      sum_err = std::max(sum_err,
                         max_err(backend->Decrypt(sum).ValueOrDie(), expected));
    }
    const std::string label = std::to_string(bits[0]) + "-bit primes";
    const auto sci = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3e", v);
      return std::string(buf);
    };
    RecordProperty(label + " full", sci(full_err));
    RecordProperty(label + " ragged", sci(ragged_err));
    RecordProperty(label + " sum8", sci(sum_err));
    EXPECT_LT(full_err, 1e-8) << label;
    EXPECT_LT(ragged_err, 1e-8) << label;
    EXPECT_LT(sum_err, 1e-8) << label;
  }
}

}  // namespace
}  // namespace vfps::he
