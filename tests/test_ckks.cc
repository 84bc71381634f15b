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
  const auto& encoder = ctx_->encoder();
  std::vector<double> values;
  Rng rng(7);
  for (size_t i = 0; i < encoder.slot_count(); ++i) {
    values.push_back(rng.Uniform(-100.0, 100.0));
  }
  auto pt = encoder.Encode(values, ctx_->params().scale);
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  auto decoded = encoder.Decode(*pt, ctx_->params().scale, values.size());
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

TEST_F(CkksTest, HomomorphicSubtraction) {
  std::vector<double> a = {5.0, 7.0};
  std::vector<double> b = {2.0, 10.0};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  auto cb = ctx_->EncryptVector(pk_, b, rng_.get());
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto diff = ctx_->Sub(*ca, *cb);
  ASSERT_TRUE(diff.ok());
  auto decrypted = ctx_->DecryptVector(sk_, *diff, a.size());
  ASSERT_TRUE(decrypted.ok());
  EXPECT_NEAR((*decrypted)[0], 3.0, 1e-4);
  EXPECT_NEAR((*decrypted)[1], -3.0, 1e-4);
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

TEST_F(CkksTest, AddPlainMatchesAdd) {
  std::vector<double> a = {1.0, -1.0};
  std::vector<double> b = {0.5, 0.5};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  ASSERT_TRUE(ca.ok());
  auto pt = ctx_->encoder().Encode(b, ctx_->params().scale);
  ASSERT_TRUE(pt.ok());
  auto sum = ctx_->AddPlain(*ca, *pt);
  ASSERT_TRUE(sum.ok());
  auto decrypted = ctx_->DecryptVector(sk_, *sum, a.size());
  ASSERT_TRUE(decrypted.ok());
  EXPECT_NEAR((*decrypted)[0], 1.5, 1e-4);
  EXPECT_NEAR((*decrypted)[1], -0.5, 1e-4);
}

TEST_F(CkksTest, MulScalar) {
  std::vector<double> a = {1.0, -2.0, 3.0};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  ASSERT_TRUE(ca.ok());
  auto scaled = ctx_->MulScalar(*ca, 7);
  auto decrypted = ctx_->DecryptVector(sk_, scaled, a.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], 7.0 * a[i], 1e-3);
  }
}

TEST_F(CkksTest, ScaleMismatchRejected) {
  std::vector<double> v = {1.0};
  auto ca = ctx_->EncryptVector(pk_, v, rng_.get());
  ASSERT_TRUE(ca.ok());
  CkksCiphertext other = *ca;
  other.scale *= 2.0;
  EXPECT_FALSE(ctx_->Add(*ca, other).ok());
  EXPECT_FALSE(ctx_->Sub(*ca, other).ok());
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

TEST_F(CkksTest, MultiplyPlainWithRescale) {
  std::vector<double> a = {1.5, -2.0, 3.0, 0.5};
  std::vector<double> b = {2.0, 4.0, -1.0, 8.0};
  auto ct = ctx_->EncryptVector(pk_, a, rng_.get());
  ASSERT_TRUE(ct.ok());
  auto pt = ctx_->encoder().Encode(b, ctx_->params().scale);
  ASSERT_TRUE(pt.ok());
  auto product = ctx_->MultiplyPlain(*ct, *pt, ctx_->params().scale);
  ASSERT_TRUE(product.ok());
  EXPECT_DOUBLE_EQ(product->scale,
                   ctx_->params().scale * ctx_->params().scale);
  auto rescaled = ctx_->Rescale(*product);
  ASSERT_TRUE(rescaled.ok()) << rescaled.status().ToString();
  EXPECT_EQ(rescaled->level(), 1u);
  auto decrypted = ctx_->DecryptVector(sk_, *rescaled, a.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], a[i] * b[i], 1e-3) << "slot " << i;
  }
}

TEST_F(CkksTest, CiphertextMultiplyWithRelinearization) {
  auto rk = ctx_->GenerateRelinKey(sk_, rng_.get());
  std::vector<double> a = {1.5, -2.0, 3.0, 0.25};
  std::vector<double> b = {2.0, 5.0, -1.5, -4.0};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  auto cb = ctx_->EncryptVector(pk_, b, rng_.get());
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto product = ctx_->Multiply(*ca, *cb, rk);
  ASSERT_TRUE(product.ok()) << product.status().ToString();
  auto rescaled = ctx_->Rescale(*product);
  ASSERT_TRUE(rescaled.ok());
  auto decrypted = ctx_->DecryptVector(sk_, *rescaled, a.size());
  ASSERT_TRUE(decrypted.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*decrypted)[i], a[i] * b[i], 1e-2) << "slot " << i;
  }
}

TEST_F(CkksTest, MultiplyThenAddComposes) {
  // Enc(a)*Enc(b) + Enc(c)*Enc(d) after rescale: the add requires equal
  // scales and levels, which the rescaled products share.
  auto rk = ctx_->GenerateRelinKey(sk_, rng_.get());
  std::vector<double> a = {3.0}, b = {2.0}, c = {-1.0}, d = {5.0};
  auto ca = ctx_->EncryptVector(pk_, a, rng_.get());
  auto cb = ctx_->EncryptVector(pk_, b, rng_.get());
  auto cc = ctx_->EncryptVector(pk_, c, rng_.get());
  auto cd = ctx_->EncryptVector(pk_, d, rng_.get());
  auto ab = ctx_->Rescale(*ctx_->Multiply(*ca, *cb, rk));
  auto cd2 = ctx_->Rescale(*ctx_->Multiply(*cc, *cd, rk));
  ASSERT_TRUE(ab.ok() && cd2.ok());
  // Scales after rescale are bit-identical (same arithmetic), so Add works.
  auto sum = ctx_->Add(*ab, *cd2);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto decrypted = ctx_->DecryptVector(sk_, *sum, 1);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_NEAR((*decrypted)[0], 3.0 * 2.0 + (-1.0) * 5.0, 2e-2);
}

TEST_F(CkksTest, RescaleRequiresSparePrime) {
  std::vector<double> a = {1.0};
  auto ct = ctx_->EncryptVector(pk_, a, rng_.get());
  ASSERT_TRUE(ct.ok());
  auto once = ctx_->Rescale(*ct);
  ASSERT_TRUE(once.ok());
  EXPECT_FALSE(ctx_->Rescale(*once).ok());  // level 1: nothing to drop
}

TEST_F(CkksTest, MultiplyRejectsRescaledInputs) {
  auto rk = ctx_->GenerateRelinKey(sk_, rng_.get());
  auto ct = ctx_->EncryptVector(pk_, {1.0}, rng_.get());
  ASSERT_TRUE(ct.ok());
  auto low = ctx_->Rescale(*ct);
  ASSERT_TRUE(low.ok());
  EXPECT_FALSE(ctx_->Multiply(*low, *ct, rk).ok());
  EXPECT_FALSE(ctx_->Multiply(*ct, *ct, CkksRelinKey{}).ok());
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

// Encoder digests. The CRC32 values below were taken from the complex<double>
// FFT encoder this one replaced; the split-array FFT must reproduce its
// residues and decoded doubles bit for bit, on every ISA and -O level.
struct EncoderDigests {
  uint32_t encode_full, encode_ragged;
  uint32_t decode_full, decode_ragged, decode_uniform;
};

uint32_t PolyDigest(const RnsPoly& poly) {
  Crc32Accumulator acc;
  for (const auto& residue : poly.residues) {
    for (uint64_t v : residue) acc.Update(v);
  }
  return acc.value();
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

EncoderDigests DigestEncoder(size_t degree, std::vector<int> prime_bits) {
  CkksParams params;
  params.poly_degree = degree;
  params.prime_bits = std::move(prime_bits);
  auto ctx = CkksContext::Create(params).ValueOrDie();
  const CkksEncoder& encoder = ctx->encoder();
  const size_t slots = encoder.slot_count();
  const auto full = UniformValues(101, slots, -100.0, 100.0);
  const auto ragged = UniformValues(202, slots / 3 + 1, -1e4, 1e4);
  const RnsPoly full_pt = encoder.Encode(full, params.scale).ValueOrDie();
  const RnsPoly ragged_pt = encoder.Encode(ragged, params.scale).ValueOrDie();
  Rng rng(303);
  const RnsPoly uniform = SampleUniform(ctx->rns(), &rng);
  EncoderDigests d;
  d.encode_full = PolyDigest(full_pt);
  d.encode_ragged = PolyDigest(ragged_pt);
  d.decode_full =
      ValuesDigest(encoder.Decode(full_pt, params.scale, slots).ValueOrDie());
  d.decode_ragged = ValuesDigest(
      encoder.Decode(ragged_pt, params.scale, ragged.size()).ValueOrDie());
  d.decode_uniform =
      ValuesDigest(encoder.Decode(uniform, params.scale, slots).ValueOrDie());
  return d;
}

// Encodes every ragged length 1..512 at n = 1024 into one running digest.
uint32_t DigestEveryChunkLength(std::vector<int> prime_bits) {
  CkksParams params;
  params.poly_degree = 1024;
  params.prime_bits = std::move(prime_bits);
  auto ctx = CkksContext::Create(params).ValueOrDie();
  const CkksEncoder& encoder = ctx->encoder();
  const auto values = UniformValues(404, encoder.slot_count(), -50.0, 50.0);
  Crc32Accumulator acc;
  for (size_t count = 1; count <= values.size(); ++count) {
    const RnsPoly pt =
        encoder.Encode(std::span<const double>(values.data(), count), params.scale)
            .ValueOrDie();
    for (const auto& residue : pt.residues) {
      for (uint64_t v : residue) acc.Update(v);
    }
  }
  return acc.value();
}

// The ISAs this host can run, scalar first. The default-prime twins below
// recompute their digests under each, since the IFMA kernels (AVX-512 on
// CPUs that have it, primes below 2^50) serve only the default primes.
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

TEST(CkksEncoderDigestTest, MatchesPinnedDigests) {
  const EncoderDigests small = DigestEncoder(1024, {54, 54});
  EXPECT_EQ(small.encode_full, 0xE9F9ED39u);
  EXPECT_EQ(small.encode_ragged, 0x696AF663u);
  EXPECT_EQ(small.decode_full, 0x25B58033u);
  EXPECT_EQ(small.decode_ragged, 0x5D4D9D9Fu);
  EXPECT_EQ(small.decode_uniform, 0xD1F48484u);
  const EncoderDigests full = DigestEncoder(4096, {54, 54});
  EXPECT_EQ(full.encode_full, 0xB1D63E8Fu);
  EXPECT_EQ(full.encode_ragged, 0x6FA0A3E8u);
  EXPECT_EQ(full.decode_full, 0xCFE4E0D4u);
  EXPECT_EQ(full.decode_ragged, 0x60F75100u);
  EXPECT_EQ(full.decode_uniform, 0xBE800920u);
}

TEST(CkksEncoderDigestTest, EveryChunkLengthMatchesPinnedDigest) {
  EXPECT_EQ(DigestEveryChunkLength({54, 54}), 0x09089447u);
}

// The twins at the default primes ({50, 50}). Their digests were recorded on
// the scalar path.
TEST(CkksEncoderDigestTest, MatchesPinnedDigestsAtDefaultPrimes) {
  ForEachHostIsa([] {
    const EncoderDigests small = DigestEncoder(1024, CkksParams{}.prime_bits);
    EXPECT_EQ(small.encode_full, 0x57D84B2Cu);
    EXPECT_EQ(small.encode_ragged, 0x0A942B83u);
    EXPECT_EQ(small.decode_full, 0x25B58033u);
    EXPECT_EQ(small.decode_ragged, 0x5D4D9D9Fu);
    EXPECT_EQ(small.decode_uniform, 0xEBBFE7C6u);
    const EncoderDigests full = DigestEncoder(4096, CkksParams{}.prime_bits);
    EXPECT_EQ(full.encode_full, 0xDF32452Fu);
    EXPECT_EQ(full.encode_ragged, 0x8F6BCE47u);
    EXPECT_EQ(full.decode_full, 0xCFE4E0D4u);
    EXPECT_EQ(full.decode_ragged, 0x60F75100u);
    EXPECT_EQ(full.decode_uniform, 0x1AAC3355u);
  });
}

TEST(CkksEncoderDigestTest, EveryChunkLengthMatchesPinnedDigestAtDefaultPrimes) {
  ForEachHostIsa([] {
    EXPECT_EQ(DigestEveryChunkLength(CkksParams{}.prime_bits), 0x72ADA7E8u);
  });
}

// Ciphertext digests. The CRC32 values below were taken before encryption
// was restructured (one forward NTT per ciphertext fewer, block-drawn
// samplers, SIMD encoder FFT); every serialized byte and every decrypted
// double must stay the same on every ISA and -O level.
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
  EXPECT_EQ(small_two.ciphertexts, 0xEE6C14F9u);
  EXPECT_EQ(small_two.decrypted, 0xD8FAB1C6u);
  const CiphertextDigests small_one = DigestCiphertexts(1024, {54});
  EXPECT_EQ(small_one.ciphertexts, 0x615EDA1Bu);
  EXPECT_EQ(small_one.decrypted, 0xAB644D93u);
  const CiphertextDigests full_two = DigestCiphertexts(4096, {54, 54});
  EXPECT_EQ(full_two.ciphertexts, 0x621BD752u);
  EXPECT_EQ(full_two.decrypted, 0x93F8D534u);
  const CiphertextDigests full_one = DigestCiphertexts(4096, {54});
  EXPECT_EQ(full_one.ciphertexts, 0x823D2CC5u);
  EXPECT_EQ(full_one.decrypted, 0xD25157A8u);
}

TEST(CkksCiphertextDigestTest, SerializedCiphertextsMatchPinnedDigestsAtDefaultPrimes) {
  ForEachHostIsa([] {
    const CiphertextDigests small = DigestCiphertexts(1024, CkksParams{}.prime_bits);
    EXPECT_EQ(small.ciphertexts, 0xB45F642Cu);
    EXPECT_EQ(small.decrypted, 0xD8FAB1C6u);
    const CiphertextDigests full = DigestCiphertexts(4096, CkksParams{}.prime_bits);
    EXPECT_EQ(full.ciphertexts, 0x5C174B5Fu);
    EXPECT_EQ(full.decrypted, 0x93F8D534u);
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
  EXPECT_EQ(d.encrypt, 0xB81D21DFu);
  EXPECT_EQ(d.batched, 0xE5CA7BBBu);
  EXPECT_EQ(d.sum, 0xE8C9DBB1u);
  EXPECT_EQ(d.decrypted, 0xD7BAE840u);
}

TEST(CkksCiphertextDigestTest, BackendBlobsMatchPinnedDigestsAtDefaultPrimes) {
  ForEachHostIsa([] {
    const BlobDigests d = DigestBackendBlobs(CkksParams{}.prime_bits);
    EXPECT_EQ(d.encrypt, 0xE6B658B1u);
    EXPECT_EQ(d.batched, 0xADBFDCA1u);
    EXPECT_EQ(d.sum, 0x64F4913Bu);
    EXPECT_EQ(d.decrypted, 0xD7BAE840u);
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

// A single-prime context whose Q/2 lies below the scaled coefficients: the
// encoder used to accept them (it checked only 2^62) and they wrapped mod Q,
// so {1, 2, 3} decrypted to about (0.008, -0.030, 0.028) with no error.
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
      if (bits == std::vector<int>{30}) {
        ASSERT_FALSE(ct.ok());
        EXPECT_TRUE(ct.status().IsOutOfRange()) << ct.status().ToString();
        EXPECT_NE(ct.status().message().find("overflows encode bound"),
                  std::string::npos)
            << ct.status().ToString();
        return;
      }
      // {40}: Q/2 ~ 2^39 is above every coefficient (~2^33.6 here); two
      // primes put Q/2 far above them.
      ASSERT_TRUE(ct.ok()) << ct.status().ToString();
      const auto decrypted = ctx->DecryptVector(sk, *ct, values.size());
      ASSERT_TRUE(decrypted.ok());
      for (size_t i = 0; i < values.size(); ++i) {
        EXPECT_NEAR((*decrypted)[i], values[i], 1e-3) << "slot " << i;
      }
    });
  }
}

// Round-trip fidelity of the default primes ({50, 50}) against the old
// default ({54, 54}) on the same seeds and inputs: full and ragged vectors
// and an 8-way homomorphic sum, values in +-100, n = 4096. Both must keep
// the ~1e-3 bound the protocol relies on.
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
    EXPECT_LT(full_err, 1e-3) << label;
    EXPECT_LT(ragged_err, 1e-3) << label;
    EXPECT_LT(sum_err, 1e-3) << label;
  }
}

}  // namespace
}  // namespace vfps::he
