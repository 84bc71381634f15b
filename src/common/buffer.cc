#include "common/buffer.h"

#include <array>

#include "common/macros.h"
#include "common/string_util.h"
#include "simd/simd.h"

#ifdef VFPS_SIMD_X86
#include <immintrin.h>
#endif

namespace vfps {

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320. Row 0 is the
// bytewise table; row k is row k-1 advanced over one more zero byte, so row
// k maps a byte to its contribution k bytes before the end of an 8-byte
// word and eight lookups consume the whole word.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian 32-bit load, independent of host byte order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t Crc32Slice8(uint32_t crc, const uint8_t* p, size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#ifdef VFPS_SIMD_X86

// Compiled for PCLMULQDQ (+ SSE4.1 for the final extract) whatever the
// translation unit's -march; callers gate on UseClmul().
#define VFPS_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

VFPS_TARGET_CLMUL inline __m128i LoadU128(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// One 128-bit fold step: x.lo * k.lo ^ x.hi * k.hi ^ next.
VFPS_TARGET_CLMUL inline __m128i Fold128(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding for the reflected polynomial, after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). Four 128-bit accumulators fold 64 bytes per
// step, fold into one at the 128-bit stride, shrink 128 -> 64 bits, and
// Barrett-reduce to the 32-bit remainder. The constants are bit-reflected
// and shifted left by one, as the paper gives them:
//   k1, k2 = x^(4*128+32), x^(4*128-32) mod P    (64-byte stride)
//   k3, k4 = x^(128+32),   x^(128-32)   mod P    (16-byte stride)
//   k5     = x^64 mod P;  P' = P;  mu = floor(x^64 / P).
// Requires n >= 64 and n % 16 == 0.
VFPS_TARGET_CLMUL uint32_t Crc32Clmul(uint32_t crc, const uint8_t* p,
                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(LoadU128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = LoadU128(p + 16);
  __m128i x3 = LoadU128(p + 32);
  __m128i x4 = LoadU128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold128(x1, k1k2, LoadU128(p));
    x2 = Fold128(x2, k1k2, LoadU128(p + 16));
    x3 = Fold128(x3, k1k2, LoadU128(p + 32));
    x4 = Fold128(x4, k1k2, LoadU128(p + 48));
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold128(x1, k3k4, LoadU128(p));

  // 128 -> 96 bits: the low qword times k4, added to the high qword.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 96 -> 64 bits: the low dword times k5, added to the upper 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction: q = floor(x * mu), remainder = x ^ q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

// PCLMULQDQ is CPUID-checked once; the ISA gate is re-read per call so
// SetActiveIsa(kScalar) and VFPS_FORCE_SCALAR pin the portable path.
bool UseClmul() {
  static const bool has_pclmul = __builtin_cpu_supports("pclmul");
  return has_pclmul && simd::ActiveIsa() >= simd::Isa::kAvx2;
}

#endif  // VFPS_SIMD_X86

}  // namespace

uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t n) {
#ifdef VFPS_SIMD_X86
  if (n >= 64 && UseClmul()) {
    const size_t folded = n & ~size_t{15};
    state = Crc32Clmul(state, data, folded);
    data += folded;
    n -= folded;
  }
#endif
  return Crc32Slice8(state, data, n);
}

uint32_t Crc32(const uint8_t* data, size_t n) {
  return Crc32Update(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

Result<uint8_t> BinaryReader::ReadU8() {
  VFPS_RETURN_NOT_OK(Require(1));
  return data_[pos_++];
}

Result<uint32_t> BinaryReader::ReadU32() {
  VFPS_RETURN_NOT_OK(Require(sizeof(uint32_t)));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  VFPS_RETURN_NOT_OK(Require(sizeof(uint64_t)));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  VFPS_RETURN_NOT_OK(Require(sizeof(int64_t)));
  int64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  VFPS_RETURN_NOT_OK(Require(sizeof(double)));
  double v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<std::vector<uint8_t>> BinaryReader::ReadBytes() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n));
  std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(double)));
  std::vector<double> out(n);
  // n == 0 leaves out.data() null; memcpy's arguments are declared nonnull.
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
  pos_ += n * sizeof(double);
  return out;
}

Result<const uint8_t*> BinaryReader::ReadRaw(size_t n) {
  VFPS_RETURN_NOT_OK(Require(n));
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

Result<std::vector<uint64_t>> BinaryReader::ReadU64Vec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(uint64_t)));
  std::vector<uint64_t> out(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(uint64_t));
  pos_ += n * sizeof(uint64_t);
  return out;
}

Result<std::vector<uint8_t>> BinaryReader::ReadCrcFramed() {
  VFPS_ASSIGN_OR_RETURN(uint32_t expected, ReadU32());
  VFPS_ASSIGN_OR_RETURN(auto payload, ReadBytes());
  const uint32_t actual = Crc32(payload);
  if (actual != expected) {
    return Status::Corrupt(
        StrFormat("CRC mismatch: frame carries 0x%08X, payload hashes to 0x%08X",
                  expected, actual));
  }
  return payload;
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vec() {
  VFPS_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  VFPS_RETURN_NOT_OK(Require(n * sizeof(uint32_t)));
  std::vector<uint32_t> out(n);
  if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(uint32_t));
  pos_ += n * sizeof(uint32_t);
  return out;
}

}  // namespace vfps
