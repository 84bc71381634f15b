#ifndef VFPS_VFL_PROTOCOL_SHAPE_H_
#define VFPS_VFL_PROTOCOL_SHAPE_H_

#include <cstdint>
#include <tuple>

#include "common/buffer.h"
#include "common/result.h"
#include "data/dataset.h"
#include "data/partitioner.h"

namespace vfps::vfl {

enum class KnnOracleMode;  // vfl/fed_knn.h
struct FedKnnConfig;       // vfl/fed_knn.h

/// \brief What makes two federated KNN oracle runs the same protocol run:
/// equal shapes over the same membership compute the same per-party
/// contributions and neighborhoods (membership is not shape). SelectionCache
/// is keyed by it; SelectionCheckpoint stores it and a resume must match it.
///
/// Fields() is the one field list: ==, CheckMatches(), Write() and Read()
/// follow it, so a new field is declared, listed and filled in Of() here and
/// nowhere else.
struct ProtocolShape {
  uint64_t seed = 0;
  KnnOracleMode mode{};
  uint64_t k = 0;
  uint64_t num_queries = 0;       // |Q| as configured, before clamping to N
  uint64_t fagin_batch = 0;
  uint64_t query_group = 0;       // as configured; 0 = sized to the slots
  uint64_t n_rows = 0;            // N: training rows
  uint64_t num_participants = 0;  // P
  uint64_t shards = 1;
  uint64_t prefilter_clusters = 0;
  /// CRC-32 of the training matrix (shape, then row-major features) and each
  /// party's column list (size first): equal N and P are not equal data.
  uint32_t data_digest = 0;

  /// The shape of running `config` over `train` split by `partition`; one
  /// CRC-32 pass over the training matrix.
  static ProtocolShape Of(const FedKnnConfig& config,
                          const data::Dataset& train,
                          const data::VerticalPartition& partition);
  /// The same with `data_digest` = DataDigest(train, partition) already
  /// known, for a caller whose data does not change between runs.
  static ProtocolShape Of(const FedKnnConfig& config,
                          const data::Dataset& train,
                          const data::VerticalPartition& partition,
                          uint32_t data_digest);
  /// The `data_digest` field for `train` split by `partition`.
  static uint32_t DataDigest(const data::Dataset& train,
                             const data::VerticalPartition& partition);

  bool operator==(const ProtocolShape&) const = default;

  /// OK if `run` equals this (a checkpoint's) shape; otherwise
  /// InvalidArgument "checkpoint: <field> mismatch (checkpoint X vs run Y)"
  /// naming the first differing field.
  Status CheckMatches(const ProtocolShape& run) const;

  /// 84 bytes in field order: the mode as i64, the digest as u32, rest u64.
  void Write(BinaryWriter* w) const;
  /// Inverse of Write(); a mode that names no KnnOracleMode is Corrupt.
  static Result<ProtocolShape> Read(BinaryReader* r);

  /// A field-list entry; `note` is appended to its mismatch message.
  template <typename T>
  struct Field {
    const char* name;
    T ProtocolShape::*member;
    const char* note = nullptr;
  };

  /// The field list, in wire order.
  static constexpr auto Fields() {
    return std::tuple(
        Field<uint64_t>{"seed", &ProtocolShape::seed},
        Field<KnnOracleMode>{"oracle mode", &ProtocolShape::mode},
        Field<uint64_t>{"k", &ProtocolShape::k},
        Field<uint64_t>{"num_queries", &ProtocolShape::num_queries},
        Field<uint64_t>{"fagin_batch", &ProtocolShape::fagin_batch},
        Field<uint64_t>{"query_group", &ProtocolShape::query_group},
        Field<uint64_t>{"n_rows", &ProtocolShape::n_rows},
        Field<uint64_t>{"num_participants", &ProtocolShape::num_participants},
        Field<uint64_t>{"shards", &ProtocolShape::shards},
        Field<uint64_t>{"prefilter_clusters",
                        &ProtocolShape::prefilter_clusters},
        Field<uint32_t>{"data_digest", &ProtocolShape::data_digest,
                        "the training data or column partition differs"});
  }
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_PROTOCOL_SHAPE_H_
