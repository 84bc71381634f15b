#include "vfl/protocol_shape.h"

#include <span>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"
#include "vfl/fed_knn.h"

namespace vfps::vfl {

namespace {

// Visits ProtocolShape::Fields() in wire order until `visit` returns false.
template <typename Visit>
void ForEachField(Visit&& visit) {
  std::apply([&](const auto&... field) { (visit(field) && ...); },
             ProtocolShape::Fields());
}

void WriteValue(BinaryWriter* w, uint64_t v) { w->WriteU64(v); }
void WriteValue(BinaryWriter* w, uint32_t v) { w->WriteU32(v); }
void WriteValue(BinaryWriter* w, KnnOracleMode v) {
  w->WriteI64(static_cast<int64_t>(v));
}

Status ReadValue(BinaryReader* r, uint64_t* v) {
  VFPS_ASSIGN_OR_RETURN(*v, r->ReadU64());
  return Status::OK();
}
Status ReadValue(BinaryReader* r, uint32_t* v) {
  VFPS_ASSIGN_OR_RETURN(*v, r->ReadU32());
  return Status::OK();
}
Status ReadValue(BinaryReader* r, KnnOracleMode* v) {
  VFPS_ASSIGN_OR_RETURN(const int64_t raw, r->ReadI64());
  // The modes are 0..kThreshold; checked before the cast, which would wrap a
  // large value onto a mode.
  if (raw < 0 || raw > static_cast<int64_t>(KnnOracleMode::kThreshold)) {
    return Status::Corrupt(StrFormat("protocol shape: unknown oracle mode %lld",
                                     static_cast<long long>(raw)));
  }
  *v = static_cast<KnnOracleMode>(raw);
  return Status::OK();
}

std::string Show(uint64_t v) {
  return StrFormat("%llu", static_cast<unsigned long long>(v));
}
std::string Show(KnnOracleMode v) { return Show(static_cast<uint64_t>(v)); }
std::string Show(uint32_t digest) { return StrFormat("0x%08X", digest); }

}  // namespace

uint32_t ProtocolShape::DataDigest(const data::Dataset& train,
                                  const data::VerticalPartition& partition) {
  const size_t rows = train.num_samples();
  const size_t cols = train.num_features();
  Crc32Accumulator digest;
  digest.Update(static_cast<uint64_t>(rows));
  digest.Update(static_cast<uint64_t>(cols));
  // Rows are contiguous: Row(0) spans the whole row-major matrix.
  digest.Update(std::span<const double>(train.Row(0), rows * cols));
  digest.Update(static_cast<uint64_t>(partition.size()));
  for (const std::vector<size_t>& columns : partition) {
    digest.Update(static_cast<uint64_t>(columns.size()));
    for (size_t c : columns) digest.Update(static_cast<uint64_t>(c));
  }
  return digest.value();
}

ProtocolShape ProtocolShape::Of(const FedKnnConfig& config,
                                const data::Dataset& train,
                                const data::VerticalPartition& partition) {
  return Of(config, train, partition, DataDigest(train, partition));
}

ProtocolShape ProtocolShape::Of(const FedKnnConfig& config,
                                const data::Dataset& train,
                                const data::VerticalPartition& partition,
                                uint32_t data_digest) {
  return ProtocolShape{.seed = config.seed,
                       .mode = config.mode,
                       .k = config.k,
                       .num_queries = config.num_queries,
                       .fagin_batch = config.fagin_batch,
                       .query_group = config.query_group,
                       .n_rows = train.num_samples(),
                       .num_participants = partition.size(),
                       .shards = config.shards,
                       .prefilter_clusters = config.prefilter_clusters,
                       .data_digest = data_digest};
}

Status ProtocolShape::CheckMatches(const ProtocolShape& run) const {
  Status status;
  ForEachField([&](const auto& field) {
    const auto& have = this->*field.member;
    const auto& want = run.*field.member;
    if (have == want) return true;
    status = Status::InvalidArgument(StrFormat(
        "checkpoint: %s mismatch (checkpoint %s vs run %s)%s%s", field.name,
        Show(have).c_str(), Show(want).c_str(), field.note ? ": " : "",
        field.note ? field.note : ""));
    return false;
  });
  return status;
}

void ProtocolShape::Write(BinaryWriter* w) const {
  ForEachField([&](const auto& field) {
    WriteValue(w, this->*field.member);
    return true;
  });
}

Result<ProtocolShape> ProtocolShape::Read(BinaryReader* r) {
  ProtocolShape shape;
  Status status;
  ForEachField([&](const auto& field) {
    status = ReadValue(r, &(shape.*field.member));
    return status.ok();
  });
  VFPS_RETURN_NOT_OK(status);
  return shape;
}

}  // namespace vfps::vfl
