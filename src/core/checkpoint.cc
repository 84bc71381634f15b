#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace vfps::core {

namespace {

// '3' since data_digest joined the body ('2' added the shard layout): the
// field reads below are sequential, so a format change MUST bump the magic —
// older files then fail with a clear bad-magic error up front.
constexpr char kMagic[8] = {'V', 'F', 'P', 'S', 'C', 'K', 'P', '3'};

// Smallest encoding of one neighborhood: query_row u64 plus the u32 counts
// of its (possibly empty) neighbor and d_T vectors.
constexpr size_t kMinHoodBytes = sizeof(uint64_t) + 2 * sizeof(uint32_t);

// A count read from the body is checked against the bytes left before
// anything is sized by it: the frame CRC catches accidental damage, not a
// crafted count, and resize()/reserve() on a huge one would abort.
Status CheckCount(const BinaryReader& r, uint32_t count, size_t min_bytes,
                  const char* what) {
  if (count > r.remaining() / min_bytes) {
    return Status::Corrupt(StrFormat(
        "checkpoint: %s count %u exceeds the %zu bytes left in the body",
        what, count, r.remaining()));
  }
  return Status::OK();
}

void WriteU64Sizes(BinaryWriter* w, const std::vector<size_t>& v) {
  w->WriteU32(static_cast<uint32_t>(v.size()));
  for (size_t x : v) w->WriteU64(static_cast<uint64_t>(x));
}

Result<std::vector<size_t>> ReadU64Sizes(BinaryReader* r) {
  VFPS_ASSIGN_OR_RETURN(const uint32_t n, r->ReadU32());
  VFPS_RETURN_NOT_OK(CheckCount(*r, n, sizeof(uint64_t), "size list"));
  std::vector<size_t> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    VFPS_ASSIGN_OR_RETURN(const uint64_t x, r->ReadU64());
    v.push_back(static_cast<size_t>(x));
  }
  return v;
}

}  // namespace

std::vector<uint32_t> SelectionCheckpoint::ComputePartyDigests(
    const std::vector<vfl::QueryNeighborhood>& neighborhoods,
    size_t num_participants) {
  std::vector<Crc32Accumulator> acc(num_participants);
  for (const vfl::QueryNeighborhood& hood : neighborhoods) {
    for (size_t party = 0;
         party < num_participants && party < hood.per_party_dt.size();
         ++party) {
      const double dt = hood.per_party_dt[party];
      uint64_t bits;
      std::memcpy(&bits, &dt, sizeof(bits));
      acc[party].Update(bits);
    }
  }
  std::vector<uint32_t> digests(num_participants);
  for (size_t party = 0; party < num_participants; ++party) {
    digests[party] = acc[party].value();
  }
  return digests;
}

std::vector<uint8_t> SelectionCheckpoint::Serialize() const {
  BinaryWriter body;
  shape.Write(&body);
  body.WriteU64(target);

  for (const auto* ids : {&quarantined, &absent, &joined, &healed}) {
    WriteU64Sizes(&body, *ids);
  }

  body.WriteU32(static_cast<uint32_t>(neighborhoods.size()));
  for (const vfl::QueryNeighborhood& hood : neighborhoods) {
    body.WriteU64(hood.query_row);
    body.WriteU64Vec(hood.neighbors);
    body.WriteDoubleVec(hood.per_party_dt);
  }
  body.WriteU32Vec(party_digests);

  WriteU64Sizes(&body, greedy.selected);
  body.WriteDoubleVec(greedy.gains);
  body.WriteDoubleVec(greedy.best);
  body.WriteDoubleVec(greedy.bounds);
  WriteU64Sizes(&body, greedy.bound_rounds);
  body.WriteDouble(greedy.value);
  body.WriteDouble(value);

  BinaryWriter out;
  for (char c : kMagic) out.WriteU8(static_cast<uint8_t>(c));
  out.WriteCrcFramed(body.bytes());
  return out.TakeBytes();
}

Result<SelectionCheckpoint> SelectionCheckpoint::Deserialize(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "checkpoint: bad magic (not a VFPSCKP3 file)");
  }
  BinaryReader framed(bytes.data() + sizeof(kMagic),
                      bytes.size() - sizeof(kMagic));
  VFPS_ASSIGN_OR_RETURN(const std::vector<uint8_t> body, framed.ReadCrcFramed());

  BinaryReader r(body);
  SelectionCheckpoint ckp;
  VFPS_ASSIGN_OR_RETURN(ckp.shape, vfl::ProtocolShape::Read(&r));
  VFPS_ASSIGN_OR_RETURN(ckp.target, r.ReadU64());

  for (auto* ids : {&ckp.quarantined, &ckp.absent, &ckp.joined, &ckp.healed}) {
    VFPS_ASSIGN_OR_RETURN(*ids, ReadU64Sizes(&r));
  }

  VFPS_ASSIGN_OR_RETURN(const uint32_t num_hoods, r.ReadU32());
  VFPS_RETURN_NOT_OK(
      CheckCount(r, num_hoods, kMinHoodBytes, "neighborhood"));
  ckp.neighborhoods.resize(num_hoods);
  for (uint32_t i = 0; i < num_hoods; ++i) {
    vfl::QueryNeighborhood& hood = ckp.neighborhoods[i];
    VFPS_ASSIGN_OR_RETURN(hood.query_row, r.ReadU64());
    VFPS_ASSIGN_OR_RETURN(hood.neighbors, r.ReadU64Vec());
    VFPS_ASSIGN_OR_RETURN(hood.per_party_dt, r.ReadDoubleVec());
  }
  VFPS_ASSIGN_OR_RETURN(ckp.party_digests, r.ReadU32Vec());

  VFPS_ASSIGN_OR_RETURN(ckp.greedy.selected, ReadU64Sizes(&r));
  VFPS_ASSIGN_OR_RETURN(ckp.greedy.gains, r.ReadDoubleVec());
  VFPS_ASSIGN_OR_RETURN(ckp.greedy.best, r.ReadDoubleVec());
  VFPS_ASSIGN_OR_RETURN(ckp.greedy.bounds, r.ReadDoubleVec());
  VFPS_ASSIGN_OR_RETURN(ckp.greedy.bound_rounds, ReadU64Sizes(&r));
  VFPS_ASSIGN_OR_RETURN(ckp.greedy.value, r.ReadDouble());
  VFPS_ASSIGN_OR_RETURN(ckp.value, r.ReadDouble());
  if (!r.AtEnd()) {
    return Status::Corrupt("checkpoint: trailing bytes after body");
  }
  return ckp;
}

Status SelectionCheckpoint::SaveFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError(
        StrFormat("checkpoint: cannot open '%s' for writing", path.c_str()));
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int closed = std::fclose(f);
  if (written != bytes.size() || closed != 0) {
    return Status::IOError(
        StrFormat("checkpoint: short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<SelectionCheckpoint> SelectionCheckpoint::LoadFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError(
        StrFormat("checkpoint: cannot open '%s' for reading", path.c_str()));
  }
  // Read to EOF rather than sizing from ftell(): a directory opens fine and
  // ext4 reports its size as LLONG_MAX, and /proc files report 0.
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 14] = {};
  for (size_t n = 0; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IOError(
        StrFormat("checkpoint: cannot read '%s'", path.c_str()));
  }
  return Deserialize(bytes);
}

Status SelectionCheckpoint::CheckConsistent() const {
  const uint64_t p = shape.num_participants;
  for (const auto* ids : {&quarantined, &absent, &joined, &healed}) {
    for (size_t id : *ids) {
      if (id < 1 || id >= p) {
        return Status::Corrupt("checkpoint: membership id outside [1, P)");
      }
    }
  }
  // ComputePartyDigests skips missing values, so the digests alone would
  // pass a short d_T vector.
  for (const vfl::QueryNeighborhood& hood : neighborhoods) {
    if (hood.per_party_dt.size() != p) {
      return Status::Corrupt("checkpoint: a d_T vector does not hold P values");
    }
  }
  if (party_digests.size() != p ||
      ComputePartyDigests(neighborhoods, p) != party_digests) {
    return Status::Corrupt(
        "checkpoint: per-party d_T digests do not match the stored "
        "neighborhoods");
  }
  return Status::OK();
}

}  // namespace vfps::core
