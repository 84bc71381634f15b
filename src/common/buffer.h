#ifndef VFPS_COMMON_BUFFER_H_
#define VFPS_COMMON_BUFFER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace vfps {

/// \brief Advance a raw CRC-32 register over `n` bytes: start from
/// 0xFFFFFFFF and XOR the final register with 0xFFFFFFFF. Feeding a stream
/// in any split gives the same register as one call over all of it.
///
/// The one CRC kernel behind Crc32, Crc32Accumulator and the CRC frames.
/// It folds 4x128 bits at a time with PCLMULQDQ and Barrett-reduces to 32
/// bits when simd::ActiveIsa() >= Isa::kAvx2 and the CPU has PCLMULQDQ;
/// otherwise (and for the last < 16 bytes) it runs slicing-by-8. Both
/// paths compute the same polynomial remainder, so the value never depends
/// on the dispatch (VFPS_FORCE_SCALAR=1 pins the portable path).
uint32_t Crc32Update(uint32_t state, const uint8_t* data, size_t n);

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n`
/// bytes. Matches zlib's crc32(): Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// \brief Streaming CRC-32 over a sequence of Update() calls, equivalent to
/// Crc32() over the concatenated bytes. Used to digest per-participant data
/// streams (e.g. a party's ranking contributions across all query units)
/// without materializing them contiguously.
class Crc32Accumulator {
 public:
  void Update(const uint8_t* data, size_t n) {
    state_ = Crc32Update(state_, data, n);
  }
  void Update(const std::vector<uint8_t>& bytes) {
    Update(bytes.data(), bytes.size());
  }
  void Update(std::span<const double> values) {
    Update(reinterpret_cast<const uint8_t*>(values.data()),
           values.size() * sizeof(double));
  }
  void Update(uint64_t v) {
    Update(reinterpret_cast<const uint8_t*>(&v), sizeof(v));
  }

  /// The CRC-32 of everything fed so far (empty input yields 0, like zlib).
  uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// \brief Growable byte buffer plus a little-endian binary writer.
///
/// All wire messages in vfps::net are serialized through this writer so that
/// the simulated network can meter exact byte counts.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { bytes_.push_back(v); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    AppendRaw(s.data(), s.size());
  }

  void WriteBytes(const std::vector<uint8_t>& b) {
    Grow(sizeof(uint32_t) + b.size());
    WriteU32(static_cast<uint32_t>(b.size()));
    AppendRaw(b.data(), b.size());
  }

  void WriteDoubleVec(std::span<const double> v) {
    Grow(sizeof(uint32_t) + v.size() * sizeof(double));
    WriteU32(static_cast<uint32_t>(v.size()));
    AppendRaw(v.data(), v.size() * sizeof(double));
  }
  // std::span gains an initializer_list constructor only in C++26; keep
  // brace-list call sites compiling under C++20.
  void WriteDoubleVec(std::initializer_list<double> v) {
    WriteDoubleVec(std::span<const double>(v.begin(), v.size()));
  }

  void WriteU64Vec(const std::vector<uint64_t>& v) {
    Grow(sizeof(uint32_t) + v.size() * sizeof(uint64_t));
    WriteU32(static_cast<uint32_t>(v.size()));
    AppendRaw(v.data(), v.size() * sizeof(uint64_t));
  }

  void WriteU32Vec(const std::vector<uint32_t>& v) {
    Grow(sizeof(uint32_t) + v.size() * sizeof(uint32_t));
    WriteU32(static_cast<uint32_t>(v.size()));
    AppendRaw(v.data(), v.size() * sizeof(uint32_t));
  }

  /// Write `payload` as an integrity-checked frame: [crc32 u32][len u32]
  /// [bytes]. The matching BinaryReader::ReadCrcFramed() detects in-flight
  /// corruption instead of silently consuming flipped bits.
  void WriteCrcFramed(const std::vector<uint8_t>& payload) {
    WriteU32(Crc32(payload));
    WriteBytes(payload);
  }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  // Room for a length-prefixed vector in one allocation; growth stays
  // geometric, so a writer appending many vectors still copies O(total).
  void Grow(size_t more) {
    const size_t need = bytes_.size() + more;
    if (need > bytes_.capacity()) {
      bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
    }
  }

  void AppendRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  std::vector<uint8_t> bytes_;
};

/// \brief Bounds-checked reader over a byte span produced by BinaryWriter.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<std::vector<uint8_t>> ReadBytes();
  Result<std::vector<double>> ReadDoubleVec();
  Result<std::vector<uint64_t>> ReadU64Vec();
  Result<std::vector<uint32_t>> ReadU32Vec();
  /// The next `n` bytes in place, without a length prefix or a copy
  /// (OutOfRange when fewer remain).
  Result<const uint8_t*> ReadRaw(size_t n);

  /// Read a frame written by BinaryWriter::WriteCrcFramed(). Returns Corrupt
  /// if the payload's CRC does not match the transmitted one, OutOfRange if
  /// the frame is truncated (e.g. a corrupted length field).
  Result<std::vector<uint8_t>> ReadCrcFramed();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Require(size_t n) {
    if (n > size_ - pos_) {
      return Status::OutOfRange("BinaryReader: truncated message");
    }
    return Status::OK();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace vfps

#endif  // VFPS_COMMON_BUFFER_H_
