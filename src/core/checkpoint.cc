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

uint32_t SelectionCheckpoint::ComputeDataDigest(
    const data::Dataset& train, const data::VerticalPartition& partition) {
  Crc32Accumulator acc;
  const size_t rows = train.num_samples();
  const size_t cols = train.num_features();
  acc.Update(static_cast<uint64_t>(rows));
  acc.Update(static_cast<uint64_t>(cols));
  // Rows are contiguous: Row(0) spans the whole row-major matrix.
  acc.Update(std::span<const double>(train.Row(0), rows * cols));
  acc.Update(static_cast<uint64_t>(partition.size()));
  for (const std::vector<size_t>& columns : partition) {
    acc.Update(static_cast<uint64_t>(columns.size()));
    for (size_t c : columns) acc.Update(static_cast<uint64_t>(c));
  }
  return acc.value();
}

std::vector<uint8_t> SelectionCheckpoint::Serialize() const {
  BinaryWriter body;
  body.WriteU64(seed);
  body.WriteI64(mode);
  body.WriteU64(k);
  body.WriteU64(num_queries);
  body.WriteU64(fagin_batch);
  body.WriteU64(query_group);
  body.WriteU64(n_rows);
  body.WriteU64(num_participants);
  body.WriteU64(shards);
  body.WriteU64(prefilter_clusters);
  body.WriteU32(data_digest);
  body.WriteU64(target);

  body.WriteU64Vec(quarantined);
  body.WriteU64Vec(absent);
  body.WriteU64Vec(joined);
  body.WriteU64Vec(healed);

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
  VFPS_ASSIGN_OR_RETURN(ckp.seed, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.mode, r.ReadI64());
  VFPS_ASSIGN_OR_RETURN(ckp.k, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.num_queries, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.fagin_batch, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.query_group, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.n_rows, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.num_participants, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.shards, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.prefilter_clusters, r.ReadU64());
  VFPS_ASSIGN_OR_RETURN(ckp.data_digest, r.ReadU32());
  VFPS_ASSIGN_OR_RETURN(ckp.target, r.ReadU64());

  VFPS_ASSIGN_OR_RETURN(ckp.quarantined, r.ReadU64Vec());
  VFPS_ASSIGN_OR_RETURN(ckp.absent, r.ReadU64Vec());
  VFPS_ASSIGN_OR_RETURN(ckp.joined, r.ReadU64Vec());
  VFPS_ASSIGN_OR_RETURN(ckp.healed, r.ReadU64Vec());

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
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError(
        StrFormat("checkpoint: cannot stat '%s'", path.c_str()));
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    return Status::IOError(
        StrFormat("checkpoint: short read from '%s'", path.c_str()));
  }
  return Deserialize(bytes);
}

Status SelectionCheckpoint::CompatibleWith(
    uint64_t run_seed, int64_t run_mode, uint64_t run_k,
    uint64_t run_num_queries, uint64_t run_fagin_batch,
    uint64_t run_query_group, uint64_t run_n_rows,
    uint64_t run_num_participants, uint64_t run_shards,
    uint64_t run_prefilter_clusters) const {
  const auto mismatch = [](const char* field, uint64_t have, uint64_t want) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint: %s mismatch (checkpoint %llu vs run %llu)", field,
        static_cast<unsigned long long>(have),
        static_cast<unsigned long long>(want)));
  };
  if (seed != run_seed) return mismatch("seed", seed, run_seed);
  if (mode != run_mode) {
    return mismatch("oracle mode", static_cast<uint64_t>(mode),
                    static_cast<uint64_t>(run_mode));
  }
  if (k != run_k) return mismatch("k", k, run_k);
  if (num_queries != run_num_queries) {
    return mismatch("num_queries", num_queries, run_num_queries);
  }
  if (fagin_batch != run_fagin_batch) {
    return mismatch("fagin_batch", fagin_batch, run_fagin_batch);
  }
  if (query_group != run_query_group) {
    return mismatch("query_group", query_group, run_query_group);
  }
  if (n_rows != run_n_rows) return mismatch("n_rows", n_rows, run_n_rows);
  if (num_participants != run_num_participants) {
    return mismatch("num_participants", num_participants,
                    run_num_participants);
  }
  if (shards != run_shards) return mismatch("shards", shards, run_shards);
  if (prefilter_clusters != run_prefilter_clusters) {
    return mismatch("prefilter_clusters", prefilter_clusters,
                    run_prefilter_clusters);
  }
  return Status::OK();
}

}  // namespace vfps::core
