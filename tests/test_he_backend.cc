#include "he/backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

namespace vfps::he {
namespace {

// Shared backend fixtures (key generation is expensive, do it once).
std::unique_ptr<HeBackend>* CkksFixture() {
  static auto* backend = [] {
    CkksParams params;
    params.poly_degree = 1024;
    auto result = CreateCkksBackend(params, /*seed=*/31337);
    return new std::unique_ptr<HeBackend>(result.MoveValueUnsafe());
  }();
  return backend;
}

std::unique_ptr<HeBackend>* PaillierFixture() {
  static auto* backend = [] {
    auto result = CreatePaillierBackend(/*modulus_bits=*/256,
                                        /*fractional_bits=*/20, /*seed=*/99);
    return new std::unique_ptr<HeBackend>(result.MoveValueUnsafe());
  }();
  return backend;
}

std::unique_ptr<HeBackend>* PlainFixture() {
  static auto* backend = new std::unique_ptr<HeBackend>(CreatePlainBackend());
  return backend;
}

class HeBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  HeBackend* backend() {
    const std::string which = GetParam();
    if (which == "ckks") return CkksFixture()->get();
    if (which == "paillier") return PaillierFixture()->get();
    return PlainFixture()->get();
  }
  // CKKS is approximate; Paillier fixed-point at 20 bits; plain exact.
  double Tolerance() const { return 1e-3; }
};

TEST_P(HeBackendTest, EncryptDecryptRoundTrip) {
  auto* be = backend();
  std::vector<double> values = {1.5, -2.25, 0.0, 100.0, -0.125};
  auto enc = be->Encrypt(values);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc->count, values.size());
  auto dec = be->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*dec)[i], values[i], Tolerance());
  }
}

TEST_P(HeBackendTest, HomomorphicSumOfThreeParties) {
  auto* be = backend();
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {0.5, -1.0, 10.0};
  std::vector<double> c = {-0.25, 4.0, -3.0};
  auto ea = be->Encrypt(a);
  auto eb = be->Encrypt(b);
  auto ec = be->Encrypt(c);
  ASSERT_TRUE(ea.ok() && eb.ok() && ec.ok());
  auto sum = be->Sum({&*ea, &*eb, &*ec});
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR((*dec)[i], a[i] + b[i] + c[i], Tolerance());
  }
}

TEST_P(HeBackendTest, SumCountMismatchRejected) {
  auto* be = backend();
  auto ea = be->Encrypt({1.0, 2.0});
  auto eb = be->Encrypt({1.0});
  ASSERT_TRUE(ea.ok() && eb.ok());
  EXPECT_FALSE(be->Sum({&*ea, &*eb}).ok());
}

TEST_P(HeBackendTest, BytesAfterTheLastCiphertextRejected) {
  auto* be = backend();
  auto valid = be->Encrypt({1.0, 2.0, 3.0});
  ASSERT_TRUE(valid.ok());
  EncryptedVector padded = *valid;
  padded.blob.push_back(0);
  for (const Status& st : {be->Decrypt(padded).status(),
                           be->Sum({&*valid, &padded}).status(),
                           be->Sum({&padded, &*valid}).status()}) {
    EXPECT_TRUE(st.IsProtocolError()) << st.ToString();
  }
}

// Paillier and plain blobs record their value count, which must equal the
// vector's (a CKKS blob records only its chunk count, checked by
// CkksRejectsChunkCountThatDisagreesWithCount).
TEST(HeBackendTest, DeclaredCountMustMatchTheBlob) {
  for (HeBackend* be : {PaillierFixture()->get(), PlainFixture()->get()}) {
    auto three = be->Encrypt({1.0, 2.0, 3.0});
    auto two = be->Encrypt({1.0, 2.0});
    ASSERT_TRUE(three.ok() && two.ok());
    EncryptedVector claims_three = *two;
    claims_three.count = 3;
    for (const Status& st : {be->Decrypt(claims_three).status(),
                             be->Sum({&*three, &claims_three}).status(),
                             be->Sum({&claims_three, &*three}).status()}) {
      EXPECT_TRUE(st.IsProtocolError()) << be->name() << ": " << st.ToString();
    }
  }
}

TEST_P(HeBackendTest, SumOfNothingRejected) {
  EXPECT_FALSE(backend()->Sum({}).ok());
}

TEST_P(HeBackendTest, CiphertextBytesMatchesActualBlob) {
  auto* be = backend();
  for (size_t count : {1u, 5u, 600u}) {
    std::vector<double> values(count, 1.25);
    auto enc = be->Encrypt(values);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(enc->ByteSize(), be->CiphertextBytes(count))
        << be->name() << " count=" << count;
  }
}

TEST_P(HeBackendTest, StatsCountOperations) {
  auto* be = backend();
  be->ResetStats();
  auto ea = be->Encrypt({1.0, 2.0});
  auto eb = be->Encrypt({3.0, 4.0});
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto sum = be->Sum({&*ea, &*eb});
  ASSERT_TRUE(sum.ok());
  auto dec = be->Decrypt(*sum);
  ASSERT_TRUE(dec.ok());
  const auto& stats = be->stats();
  EXPECT_GT(stats.encrypt_ops, 0u);
  EXPECT_GT(stats.add_ops, 0u);
  EXPECT_GT(stats.decrypt_ops, 0u);
  EXPECT_EQ(stats.values_encrypted, 4u);
  be->ResetStats();
  EXPECT_EQ(be->stats().encrypt_ops, 0u);
}

TEST_P(HeBackendTest, EmptyVectorRoundTrip) {
  auto* be = backend();
  auto enc = be->Encrypt({});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->count, 0u);
  auto dec = be->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_TRUE(dec->empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, HeBackendTest,
                         ::testing::Values("ckks", "paillier", "plain"));

TEST(HeBackendTest, CkksChunksLargeVectors) {
  // A vector larger than the slot count must span multiple ciphertexts and
  // still round-trip exactly.
  CkksParams params;
  params.poly_degree = 1024;  // 1024 slots
  auto be = CreateCkksBackend(params, 5);
  ASSERT_TRUE(be.ok());
  std::vector<double> values(2600);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.01 * static_cast<double>(i);
  auto enc = (*be)->Encrypt(values);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ((*be)->stats().encrypt_ops, 3u);  // ceil(2600 / 1024)
  auto dec = (*be)->Decrypt(*enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR((*dec)[i], values[i], 1e-3);
  }
}

TEST(HeBackendTest, CkksRejectsChunkCountThatDisagreesWithCount) {
  // Sum indexes every input's chunks by the first input's chunk count, so a
  // blob whose ciphertext count disagrees with its value count is rejected.
  CkksParams params;
  params.poly_degree = 1024;  // 1024 slots
  auto be = CreateCkksBackend(params, 5).MoveValueUnsafe();
  auto two = be->Encrypt(std::vector<double>(1200, 1.0)).MoveValueUnsafe();
  auto one = be->Encrypt(std::vector<double>(100, 1.0)).MoveValueUnsafe();
  one.count = two.count;  // claims 1200 values, holds one ciphertext
  for (const Status& st : {be->Sum({&two, &one}).status(),
                           be->Decrypt(one).status()}) {
    EXPECT_TRUE(st.IsProtocolError()) << st.ToString();
    EXPECT_NE(st.message().find("holds 1 ciphertexts"), std::string::npos)
        << st.ToString();
  }
}

TEST(HeBackendSecurityTest, CiphertextDoesNotEmbedPlaintext) {
  // Feature security: the serialized ciphertext must not contain the raw
  // IEEE-754 bit patterns of the plaintext values (the plain backend, by
  // design, does — that is what makes it a debugging backend only).
  const std::vector<double> values = {1234.5678, -42.125, 3.14159265};
  std::vector<uint8_t> raw(values.size() * sizeof(double));
  std::memcpy(raw.data(), values.data(), raw.size());
  auto contains = [&raw](const std::vector<uint8_t>& blob) {
    return std::search(blob.begin(), blob.end(), raw.begin(),
                       raw.begin() + sizeof(double)) != blob.end();
  };

  auto ckks = (*CkksFixture())->Encrypt(values);
  ASSERT_TRUE(ckks.ok());
  EXPECT_FALSE(contains(ckks->blob));

  auto paillier = (*PaillierFixture())->Encrypt(values);
  ASSERT_TRUE(paillier.ok());
  EXPECT_FALSE(contains(paillier->blob));

  auto plain = (*PlainFixture())->Encrypt(values);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(contains(plain->blob));  // the debug backend is NOT private
}

TEST(HeBackendSecurityTest, CkksBlobLooksUniform) {
  // Weak randomness smoke test: ciphertext bytes should use the full byte
  // alphabet (a structured/plaintext-bearing blob typically does not).
  auto enc = (*CkksFixture())->Encrypt(std::vector<double>(100, 7.0));
  ASSERT_TRUE(enc.ok());
  std::vector<size_t> histogram(256, 0);
  for (uint8_t b : enc->blob) histogram[b]++;
  size_t used = 0;
  for (size_t count : histogram) used += (count > 0);
  EXPECT_GT(used, 200u);
}

TEST(HeBackendTest, BackendNames) {
  EXPECT_EQ(CkksFixture()->get()->name(), "ckks");
  EXPECT_EQ(PaillierFixture()->get()->name(), "paillier");
  EXPECT_EQ(PlainFixture()->get()->name(), "plain");
}

}  // namespace
}  // namespace vfps::he
