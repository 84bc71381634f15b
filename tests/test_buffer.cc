#include "common/buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "simd/simd.h"

namespace vfps {
namespace {

TEST(BufferTest, RoundTripScalars) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(123456u);
  w.WriteU64(0xDEADBEEFCAFEBABEULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().ValueOrDie(), 7);
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 123456u);
  EXPECT_EQ(r.ReadU64().ValueOrDie(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(r.ReadI64().ValueOrDie(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble().ValueOrDie(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, RoundTripStringsAndVectors) {
  BinaryWriter w;
  w.WriteString("hello vfps");
  w.WriteBytes({1, 2, 3});
  w.WriteDoubleVec({1.5, -2.5, 0.0});
  w.WriteU64Vec({10, 20});
  w.WriteU32Vec({});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadString().ValueOrDie(), "hello vfps");
  EXPECT_EQ(r.ReadBytes().ValueOrDie(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadDoubleVec().ValueOrDie(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.ReadU64Vec().ValueOrDie(), (std::vector<uint64_t>{10, 20}));
  EXPECT_TRUE(r.ReadU32Vec().ValueOrDie().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, TruncatedReadFails) {
  BinaryWriter w;
  w.WriteU32(5);
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadU64().status().IsOutOfRange());
}

TEST(BufferTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.WriteU32(100);  // claims 100 doubles but provides none
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadDoubleVec().status().IsOutOfRange());
}

TEST(BufferTest, EmptyStringRoundTrip) {
  BinaryWriter w;
  w.WriteString("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadString().ValueOrDie(), "");
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32 check value (zlib, IEEE 802.3).
  const std::vector<uint8_t> check = {'1', '2', '3', '4', '5',
                                      '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Bitwise CRC-32 reference: eight shift/xor steps per byte, no table.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

/// Pins simd::ActiveIsa() for a scope and restores the previous value.
class IsaPin {
 public:
  explicit IsaPin(simd::Isa isa) : prev_(simd::ActiveIsa()) {
    simd::SetActiveIsa(isa);
  }
  ~IsaPin() { simd::SetActiveIsa(prev_); }
  IsaPin(const IsaPin&) = delete;
  IsaPin& operator=(const IsaPin&) = delete;

 private:
  simd::Isa prev_;
};

// The process's dispatch (VFPS_FORCE_SCALAR honoured), the portable path,
// and the widest path this host has (PCLMULQDQ folding on AVX2 hosts).
std::vector<simd::Isa> CrcIsas() {
  return {simd::ActiveIsa(), simd::Isa::kScalar, simd::DetectCpuIsa()};
}

TEST(Crc32Test, EveryPathMatchesTheBitwiseReference) {
  constexpr size_t kOffsets = 16;
  const std::vector<uint8_t> buf = RandomBytes(131072 + kOffsets, 7);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {4095, 4096, 131072});
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t n : lengths) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = BitwiseCrc32(p, n);
      for (simd::Isa isa : CrcIsas()) {
        IsaPin pin(isa);
        ASSERT_EQ(Crc32(p, n), want) << "isa=" << simd::IsaName(isa)
                                     << " n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(Crc32Test, AccumulatorSplitsMatchOneShot) {
  const std::vector<uint8_t> buf = RandomBytes(20000, 11);
  Rng rng(3);
  for (simd::Isa isa : CrcIsas()) {
    IsaPin pin(isa);
    for (int trial = 0; trial < 50; ++trial) {
      const size_t n = rng.NextBounded(buf.size() + 1);
      Crc32Accumulator acc;
      size_t pos = 0;
      while (pos < n) {
        // Mostly short pieces (every tail length), some past the 64-byte
        // folding threshold.
        const size_t cap = rng.NextBounded(4) == 0 ? 600 : 20;
        const size_t piece = std::min(n - pos, rng.NextBounded(cap + 1));
        acc.Update(buf.data() + pos, piece);
        pos += piece;
      }
      ASSERT_EQ(acc.value(), Crc32(buf.data(), n))
          << "isa=" << simd::IsaName(isa) << " n=" << n;
      ASSERT_EQ(acc.value(), BitwiseCrc32(buf.data(), n));
    }
  }
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::vector<uint8_t> payload(64, 0xA5);
  const uint32_t reference = Crc32(payload);
  for (size_t bit : {size_t{0}, size_t{7}, size_t{200}, payload.size() * 8 - 1}) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(flipped), reference) << "bit " << bit;
  }
}

TEST(BufferTest, CrcFramedRoundTrip) {
  const std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
  BinaryWriter w;
  w.WriteCrcFramed(payload);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadCrcFramed().ValueOrDie(), payload);
  EXPECT_TRUE(r.AtEnd());

  BinaryWriter empty;
  empty.WriteCrcFramed({});
  BinaryReader re(empty.bytes());
  EXPECT_TRUE(re.ReadCrcFramed().ValueOrDie().empty());
}

TEST(BufferTest, CrcFramedDetectsCorruption) {
  BinaryWriter w;
  w.WriteCrcFramed({1, 2, 3, 4});
  // Flip one payload bit (the payload starts after crc u32 + len u32).
  std::vector<uint8_t> wire = w.bytes();
  wire[8] ^= 0x10;
  BinaryReader r(wire);
  EXPECT_TRUE(r.ReadCrcFramed().status().IsCorrupt());
  // A corrupted length field must fail bounds-checked, not crash.
  std::vector<uint8_t> truncated = w.bytes();
  truncated[4] = 0xFF;  // length now claims far more bytes than exist
  BinaryReader rt(truncated);
  EXPECT_TRUE(rt.ReadCrcFramed().status().IsOutOfRange());
}

TEST(BufferTest, SizeTracksWrites) {
  BinaryWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.WriteU64(1);
  EXPECT_EQ(w.size(), 8u);
  w.WriteDoubleVec({1.0, 2.0});
  EXPECT_EQ(w.size(), 8u + 4u + 16u);
}

}  // namespace
}  // namespace vfps
