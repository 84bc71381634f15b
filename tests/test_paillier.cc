#include "he/paillier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "he/backend.h"

namespace vfps::he {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 256-bit keys: cryptographically weak but fast; key math is identical.
    Rng rng(77);
    auto keys = Paillier::GenerateKeys(256, &rng);
    ASSERT_TRUE(keys.ok()) << keys.status().ToString();
    keys_ = new PaillierKeyPair(*keys);
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static PaillierKeyPair* keys_;
};

PaillierKeyPair* PaillierTest::keys_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL}) {
    auto ct = Paillier::Encrypt(keys_->pub, BigInt(m), &rng);
    ASSERT_TRUE(ct.ok());
    auto dec = Paillier::Decrypt(keys_->pub, keys_->priv, *ct);
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec->ToU64(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  Rng rng(2);
  auto c1 = Paillier::Encrypt(keys_->pub, BigInt(5), &rng);
  auto c2 = Paillier::Encrypt(keys_->pub, BigInt(5), &rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->value, c2->value);
}

TEST_F(PaillierTest, HomomorphicAddition) {
  Rng rng(3);
  auto ca = Paillier::Encrypt(keys_->pub, BigInt(1234), &rng);
  auto cb = Paillier::Encrypt(keys_->pub, BigInt(8766), &rng);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto sum = Paillier::Add(keys_->pub, *ca, *cb);
  ASSERT_TRUE(sum.ok());
  auto dec = Paillier::Decrypt(keys_->pub, keys_->priv, *sum);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->ToU64(), 10000u);
}

TEST_F(PaillierTest, HomomorphicAdditionChain) {
  Rng rng(4);
  auto acc = Paillier::Encrypt(keys_->pub, BigInt(0), &rng);
  ASSERT_TRUE(acc.ok());
  uint64_t expected = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    auto ct = Paillier::Encrypt(keys_->pub, BigInt(i * i), &rng);
    ASSERT_TRUE(ct.ok());
    acc = Paillier::Add(keys_->pub, *acc, *ct);
    ASSERT_TRUE(acc.ok());
    expected += i * i;
  }
  auto dec = Paillier::Decrypt(keys_->pub, keys_->priv, *acc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->ToU64(), expected);
}

TEST_F(PaillierTest, SignedEncoding) {
  for (int64_t v : {0LL, 5LL, -5LL, 1000000LL, -1000000LL}) {
    const BigInt m = Paillier::EncodeSigned(keys_->pub, v);
    EXPECT_EQ(Paillier::DecodeSigned(keys_->pub, m), v);
  }
}

TEST_F(PaillierTest, SignedHomomorphicSum) {
  // Enc(7) + Enc(-3) should decode to 4.
  Rng rng(6);
  auto ca = Paillier::Encrypt(keys_->pub, Paillier::EncodeSigned(keys_->pub, 7), &rng);
  auto cb = Paillier::Encrypt(keys_->pub, Paillier::EncodeSigned(keys_->pub, -3), &rng);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto sum = Paillier::Add(keys_->pub, *ca, *cb);
  ASSERT_TRUE(sum.ok());
  auto dec = Paillier::Decrypt(keys_->pub, keys_->priv, *sum);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(Paillier::DecodeSigned(keys_->pub, *dec), 4);
}

TEST_F(PaillierTest, PlaintextOutOfRangeRejected) {
  Rng rng(7);
  EXPECT_FALSE(Paillier::Encrypt(keys_->pub, keys_->pub.n, &rng).ok());
  EXPECT_FALSE(Paillier::Encrypt(keys_->pub, keys_->pub.n + BigInt(1), &rng).ok());
}

// Seeded mutation test of the Paillier backend's blob decoder (Decrypt and
// Sum): crafted ciphertext counts, a declared count that disagrees with
// the blob, appended bytes, wrong ciphertext widths and values, random
// byte flips and truncations. The decoder may reject a mutant or accept
// it, but never crash or allocate by an unchecked count (CI runs this
// suite under ASan and UBSan).
class PaillierBlobMutationTest : public ::testing::Test {
 protected:
  static constexpr size_t kCount = 6;

  void SetUp() override {
    backend_ = CreatePaillierBackend(/*modulus_bits=*/256,
                                     /*fractional_bits=*/20, /*seed=*/5)
                   .ValueOrDie();
    values_ = {1.5, -2.25, 3.0, 0.0, -7.5, 100.0};
    valid_ = backend_->Encrypt(values_).ValueOrDie();
    other_ = backend_->Encrypt(values_).ValueOrDie();
    wire_bytes_ = (valid_.blob.size() - sizeof(uint32_t)) / kCount;
  }

  // Decrypts and sums (against a valid input) a mutant declaring `count`
  // values; returns whether Decrypt accepted it.
  bool Check(const std::vector<uint8_t>& blob, size_t count = kCount) {
    const EncryptedVector mutant{blob, count};
    auto plain = backend_->Decrypt(mutant);
    auto sum = backend_->Sum({&mutant, &other_});
    if (plain.ok()) {
      EXPECT_EQ(plain->size(), count);
    } else {
      EXPECT_TRUE(plain.status().IsProtocolError() ||
                  plain.status().IsOutOfRange())
          << plain.status().ToString();
    }
    if (count == kCount) {
      EXPECT_EQ(plain.ok(), sum.ok()) << sum.status().ToString();
    }
    if (sum.ok()) {
      EXPECT_TRUE(backend_->Decrypt(*sum).ok());
    }
    return plain.ok();
  }

  std::unique_ptr<HeBackend> backend_;
  std::vector<double> values_;
  EncryptedVector valid_, other_;
  size_t wire_bytes_ = 0;  // u32 length + fixed-width ciphertext
};

TEST_F(PaillierBlobMutationTest, ValidBlobDecodes) {
  EXPECT_TRUE(Check(valid_.blob));
}

TEST_F(PaillierBlobMutationTest, CraftedCountsAreCheckedBeforeSizing) {
  for (uint32_t n : {0u, uint32_t{kCount - 1}, uint32_t{kCount + 1},
                     0xFFFFFFF0u, std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint8_t> blob = valid_.blob;
    std::memcpy(blob.data(), &n, sizeof(n));
    EXPECT_FALSE(Check(blob)) << "count " << n;
    // Declared and wire counts agree, the bytes do not.
    EXPECT_FALSE(Check(blob, n)) << "declared " << n;
  }
}

TEST_F(PaillierBlobMutationTest, ShorterInputIsRejectedNotReadPast) {
  const std::vector<double> fewer(values_.begin(), values_.end() - 2);
  EncryptedVector shorter = backend_->Encrypt(fewer).ValueOrDie();
  shorter.count = kCount;  // claims the other inputs' count
  for (const Status& st : {backend_->Decrypt(shorter).status(),
                           backend_->Sum({&other_, &shorter}).status(),
                           backend_->Sum({&shorter, &other_}).status()}) {
    EXPECT_TRUE(st.IsProtocolError()) << st.ToString();
  }
}

TEST_F(PaillierBlobMutationTest, AppendedBytesAreRejected) {
  for (size_t extra : {size_t{1}, size_t{4}, wire_bytes_}) {
    std::vector<uint8_t> blob = valid_.blob;
    blob.resize(blob.size() + extra, 0);
    EXPECT_FALSE(Check(blob)) << extra << " bytes appended";
  }
  std::vector<uint8_t> blob = valid_.blob;
  blob.insert(blob.end(), valid_.blob.begin() + 4,
              valid_.blob.begin() + 4 + wire_bytes_);
  EXPECT_FALSE(Check(blob)) << "a whole ciphertext appended";
}

TEST_F(PaillierBlobMutationTest, CiphertextWidthAndRangeAreChecked) {
  const uint32_t ct_bytes = static_cast<uint32_t>(wire_bytes_ - 4);
  const size_t second = sizeof(uint32_t) + wire_bytes_;
  for (uint32_t length : {0u, ct_bytes - 1, ct_bytes + 1,
                          std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint8_t> blob = valid_.blob;
    std::memcpy(blob.data() + second, &length, sizeof(length));
    EXPECT_FALSE(Check(blob)) << "length " << length;
  }
  // All ones is at least n^2: not a ciphertext.
  std::vector<uint8_t> blob = valid_.blob;
  std::memset(blob.data() + second + 4, 0xFF, ct_bytes);
  EXPECT_FALSE(Check(blob));
}

TEST_F(PaillierBlobMutationTest, RandomFlipsAndTruncationsNeverCrash) {
  Rng rng(0xFA11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> blob = valid_.blob;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      blob[rng.NextBounded(blob.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    Check(blob);
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> blob = valid_.blob;
    blob.resize(rng.NextBounded(blob.size()));
    EXPECT_FALSE(Check(blob)) << "truncated to " << blob.size();
  }
}

TEST(PaillierKeyGenTest, RejectsTinyModulus) {
  Rng rng(8);
  EXPECT_FALSE(Paillier::GenerateKeys(32, &rng).ok());
}

}  // namespace
}  // namespace vfps::he
