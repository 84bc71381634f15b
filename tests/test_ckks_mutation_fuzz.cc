// Seeded mutation fuzz of the CKKS wire decoders: CkksContext::
// DeserializeCiphertext and the CKKS backend's blob parser (Sum, Decrypt).
//
// Mutants are made from valid ciphertexts and blobs at the default primes
// ({50, 50}) and at the old ones ({54, 54}): random byte flips, truncation,
// bytes appended after the last ciphertext, extreme prime counts and
// residue-vector lengths, chunk counts, and single residues set to q - 1,
// q, 2^50, 2^54 and 2^63. A decoder may reject a
// mutant or accept it, but never crash (CI runs this suite under ASan and
// UBSan). An accepted ciphertext must have every residue below its prime
// and must decrypt; an accepted blob must decrypt and sum.
//
// The blob's value count is not on the wire (each receiver knows it from the
// protocol shape), so only the bytes are mutated.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "he/backend.h"
#include "he/ckks.h"

namespace vfps::he {
namespace {

constexpr size_t kDegree = 1024;

CkksParams ParamsWith(std::vector<int> prime_bits) {
  CkksParams params;
  params.poly_degree = kDegree;
  params.prime_bits = std::move(prime_bits);
  return params;
}

std::vector<double> Values(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = rng.Uniform(-100.0, 100.0);
  return values;
}

template <typename T>
void Patch(std::vector<uint8_t>* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// Byte offsets inside one serialized ciphertext whose two polynomials hold
// `primes` residue vectors of kDegree words each (see SerializeCiphertext):
// scale (8 bytes), form byte, then per polynomial a u32 prime count and per
// prime a u32 length followed by the residues.
struct CiphertextLayout {
  size_t primes;

  static constexpr size_t kVector = 4 + 8 * kDegree;
  size_t PrimeCount(size_t poly) const { return 9 + poly * (4 + primes * kVector); }
  size_t Length(size_t poly, size_t prime) const {
    return PrimeCount(poly) + 4 + prime * kVector;
  }
  size_t Residue(size_t poly, size_t prime, size_t j) const {
    return Length(poly, prime) + 4 + 8 * j;
  }
};

class CkksMutationFuzzTest
    : public ::testing::TestWithParam<std::vector<int>> {
 protected:
  void SetUp() override {
    ctx_ = CkksContext::Create(ParamsWith(GetParam())).ValueOrDie();
    Rng rng(4242);
    sk_ = ctx_->GenerateSecretKey(&rng);
    pk_ = ctx_->GeneratePublicKey(sk_, &rng);
    const auto ct =
        ctx_->EncryptVector(pk_, Values(1, ctx_->slot_count()), &rng)
            .ValueOrDie();
    valid_ = Serialize(ct);
    // A level-1 ciphertext: one prime per polynomial (the last prime's
    // residues dropped, which decrypts mod q0 alone).
    CkksCiphertext level_one = ct;
    level_one.c0.residues.pop_back();
    level_one.c1.residues.pop_back();
    level_one_ = Serialize(level_one);
  }

  std::vector<uint8_t> Serialize(const CkksCiphertext& ct) const {
    BinaryWriter writer;
    ctx_->SerializeCiphertext(ct, &writer);
    return writer.TakeBytes();
  }

  // Decodes `bytes`; if accepted, checks the invariants the kernels rely on
  // and decrypts. Returns whether the mutant was accepted.
  bool DecodeAndCheck(const std::vector<uint8_t>& bytes) {
    BinaryReader reader(bytes);
    auto ct = ctx_->DeserializeCiphertext(&reader);
    if (!ct.ok()) {
      EXPECT_TRUE(ct.status().IsProtocolError() || ct.status().IsOutOfRange() ||
                  ct.status().IsCorrupt())
          << ct.status().ToString();
      return false;
    }
    EXPECT_EQ(ct->c0.num_primes(), ct->c1.num_primes());
    EXPECT_LE(ct->c0.num_primes(), ctx_->rns().num_primes());
    for (const RnsPoly* poly : {&ct->c0, &ct->c1}) {
      EXPECT_GE(poly->num_primes(), 1u);
      for (size_t i = 0; i < poly->num_primes(); ++i) {
        EXPECT_EQ(poly->residues[i].size(), kDegree);
        for (uint64_t v : poly->residues[i]) {
          if (v >= ctx_->rns().prime(i)) {
            ADD_FAILURE() << "accepted residue " << v << " for prime "
                          << ctx_->rns().prime(i);
            return true;
          }
        }
      }
    }
    auto values = ctx_->DecryptVector(sk_, *ct, ctx_->slot_count());
    EXPECT_TRUE(values.ok()) << values.status().ToString();
    return true;
  }

  std::shared_ptr<const CkksContext> ctx_;
  CkksSecretKey sk_;
  CkksPublicKey pk_;
  std::vector<uint8_t> valid_;
  std::vector<uint8_t> level_one_;
};

TEST_P(CkksMutationFuzzTest, ValidCiphertextsDecode) {
  EXPECT_TRUE(DecodeAndCheck(valid_));
  EXPECT_TRUE(DecodeAndCheck(level_one_));
}

TEST_P(CkksMutationFuzzTest, RandomByteFlipsAndTruncations) {
  Rng rng(0xF11B + GetParam()[0]);
  for (const std::vector<uint8_t>* base : {&valid_, &level_one_}) {
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<uint8_t> bytes = *base;
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
      DecodeAndCheck(bytes);
    }
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<uint8_t> bytes = *base;
      bytes.resize(rng.NextBounded(bytes.size()));
      EXPECT_FALSE(DecodeAndCheck(bytes)) << "truncated to " << bytes.size();
    }
  }
}

TEST_P(CkksMutationFuzzTest, ExtremePrimeCountsAndLengths) {
  const CiphertextLayout layout{ctx_->rns().num_primes()};
  const uint32_t counts[] = {0, 3, 1000, std::numeric_limits<uint32_t>::max()};
  const uint32_t lengths[] = {0,
                              kDegree - 1,
                              kDegree + 1,
                              2 * kDegree,
                              uint32_t{1} << 31,
                              std::numeric_limits<uint32_t>::max()};
  for (size_t poly = 0; poly < 2; ++poly) {
    for (uint32_t count : counts) {
      std::vector<uint8_t> bytes = valid_;
      Patch(&bytes, layout.PrimeCount(poly), count);
      EXPECT_FALSE(DecodeAndCheck(bytes)) << "poly " << poly << " count " << count;
    }
    // One prime fewer than the data that follows: the decoder reads the
    // rest as the next field and must not accept a ciphertext whose
    // polynomials differ in level.
    std::vector<uint8_t> fewer = valid_;
    Patch(&fewer, layout.PrimeCount(poly), uint32_t{1});
    EXPECT_FALSE(DecodeAndCheck(fewer)) << "poly " << poly << " count 1";
    for (size_t prime = 0; prime < layout.primes; ++prime) {
      for (uint32_t length : lengths) {
        std::vector<uint8_t> bytes = valid_;
        Patch(&bytes, layout.Length(poly, prime), length);
        EXPECT_FALSE(DecodeAndCheck(bytes))
            << "poly " << poly << " prime " << prime << " length " << length;
      }
    }
  }
}

TEST_P(CkksMutationFuzzTest, ResiduesAtAndAboveEachPrime) {
  const CiphertextLayout layout{ctx_->rns().num_primes()};
  Rng rng(0x7E5);
  for (size_t poly = 0; poly < 2; ++poly) {
    for (size_t prime = 0; prime < layout.primes; ++prime) {
      const uint64_t q = ctx_->rns().prime(prime);
      for (uint64_t v : {q - 1, q, uint64_t{1} << 50, uint64_t{1} << 54,
                         uint64_t{1} << 63}) {
        for (size_t j : {size_t{0}, rng.NextBounded(kDegree), kDegree - 1}) {
          std::vector<uint8_t> bytes = valid_;
          Patch(&bytes, layout.Residue(poly, prime, j), v);
          EXPECT_EQ(DecodeAndCheck(bytes), v < q)
              << "poly " << poly << " prime " << prime << " (q = " << q
              << ") residue " << j << " = " << v;
        }
      }
    }
  }
}

// Backend blobs: a u32 chunk count, then that many ciphertexts.
class CkksBlobMutationFuzzTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(CkksBlobMutationFuzzTest, MutatedBlobsNeverCrashTheBackend) {
  auto backend = CreateCkksBackend(ParamsWith(GetParam()), 77).ValueOrDie();
  const size_t slots = backend->SlotsPerCiphertext();
  const size_t count = 2 * slots + 5;  // three chunks, the last one ragged
  const EncryptedVector valid = backend->Encrypt(Values(2, count)).ValueOrDie();
  const EncryptedVector other = backend->Encrypt(Values(3, count)).ValueOrDie();
  const auto check = [&](const std::vector<uint8_t>& blob) {
    const EncryptedVector mutant{blob, count};
    auto values = backend->Decrypt(mutant);
    auto sum = backend->Sum({&mutant, &other});
    // Decrypt and Sum parse the same chunks, so they agree on acceptance.
    EXPECT_EQ(values.ok(), sum.ok()) << values.status().ToString() << " / "
                                     << sum.status().ToString();
    if (values.ok()) {
      EXPECT_EQ(values->size(), count);
    }
    if (sum.ok()) {
      auto summed = backend->Decrypt(*sum);
      EXPECT_TRUE(summed.ok()) << summed.status().ToString();
    }
    return values.ok();
  };
  EXPECT_TRUE(check(valid.blob));

  for (uint32_t chunks : {0u, 2u, 4u, std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint8_t> blob = valid.blob;
    Patch(&blob, 0, chunks);
    EXPECT_FALSE(check(blob)) << "chunk count " << chunks;
  }
  Rng rng(0xB10B + GetParam()[0]);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<uint8_t> blob = valid.blob;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      blob[rng.NextBounded(blob.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    check(blob);
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> blob = valid.blob;
    blob.resize(rng.NextBounded(blob.size()));
    EXPECT_FALSE(check(blob)) << "truncated to " << blob.size();
  }
  const size_t ct_bytes = (valid.blob.size() - 4) / 3;
  // Bytes after the last ciphertext: zeros, random bytes, and a whole
  // valid ciphertext (the first chunk again).
  for (size_t extra : {size_t{1}, size_t{7}, size_t{8}, size_t{4096}}) {
    std::vector<uint8_t> blob = valid.blob;
    blob.resize(blob.size() + extra, 0);
    EXPECT_FALSE(check(blob)) << extra << " zero bytes appended";
    for (size_t b = valid.blob.size(); b < blob.size(); ++b) {
      blob[b] = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_FALSE(check(blob)) << extra << " random bytes appended";
  }
  {
    std::vector<uint8_t> blob = valid.blob;
    blob.insert(blob.end(), valid.blob.begin() + 4,
                valid.blob.begin() + 4 + ct_bytes);
    EXPECT_FALSE(check(blob)) << "a fourth ciphertext appended";
  }
  // A residue of the second chunk's c1 set to its prime and past it.
  auto ctx = CkksContext::Create(ParamsWith(GetParam())).ValueOrDie();
  const CiphertextLayout layout{ctx->rns().num_primes()};
  for (size_t prime = 0; prime < layout.primes; ++prime) {
    const uint64_t q = ctx->rns().prime(prime);
    for (uint64_t v : {q - 1, q, uint64_t{1} << 50, uint64_t{1} << 54,
                       uint64_t{1} << 63}) {
      std::vector<uint8_t> blob = valid.blob;
      Patch(&blob, 4 + ct_bytes + layout.Residue(1, prime, 17), v);
      EXPECT_EQ(check(blob), v < q) << "prime " << q << " residue " << v;
    }
  }
}

const std::vector<int> kDefaultPrimes = CkksParams{}.prime_bits;
const std::vector<int> kOldPrimes = {54, 54};

std::string PrimeSetName(const ::testing::TestParamInfo<std::vector<int>>& info) {
  return "bits" + std::to_string(info.param[0]);
}

INSTANTIATE_TEST_SUITE_P(BothPrimeSets, CkksMutationFuzzTest,
                         ::testing::Values(kDefaultPrimes, kOldPrimes),
                         PrimeSetName);
INSTANTIATE_TEST_SUITE_P(BothPrimeSets, CkksBlobMutationFuzzTest,
                         ::testing::Values(kDefaultPrimes, kOldPrimes),
                         PrimeSetName);

}  // namespace
}  // namespace vfps::he
