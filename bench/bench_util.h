#ifndef VFPS_BENCH_BENCH_UTIL_H_
#define VFPS_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction harnesses: tiny flag
// parsing (--key=value), monospace table rendering, the canonical
// experiment-grid defaults used across benches, and the set-up the
// overhead microbenchmarks (bench_fault_overhead, bench_obs_overhead) share.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/experiment.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "he/backend.h"
#include "net/network.h"

namespace vfps::bench {

/// Peak resident set size of this process in bytes (Linux ru_maxrss is in
/// KiB). This is a high-water mark: it never decreases, so out-of-core
/// benches must be measured in a fresh process per configuration.
inline size_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<size_t>(ru.ru_maxrss) * 1024;
}

/// Current resident set size in bytes (from /proc/self/statm), or 0 where
/// the proc filesystem is unavailable.
inline size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/// Parse "--key=value" style flags; anything else aborts with usage.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unknown argument: %s (expected --key=value)\n",
                     arg.c_str());
        std::exit(2);
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseDouble(it->second).ValueOrDie();
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseInt64(it->second).ValueOrDie();
  }

  std::string GetString(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Monospace table writer: set a header, append rows, print aligned.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size(), 0);
    auto widen = [&widths](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&widths](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf("%s%s", i == 0 ? "" : "  ",
                    PadLeft(row[i], widths[i]).c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string FormatAccuracy(double acc) { return StrFormat("%.4f", acc); }
inline std::string FormatSimSeconds(double s) { return StrFormat("%.1f", s); }

/// The ten Table III dataset names in paper order.
inline const std::vector<std::string>& AllDatasets() {
  static const auto* names = new std::vector<std::string>{
      "Bank", "Phishing", "Rice", "Credit", "Adult",
      "Web",  "IJCNN",    "HDI",  "SD",     "SUSY"};
  return *names;
}

/// Canonical grid-cell configuration shared by the table benches.
inline core::ExperimentConfig GridConfig(const std::string& dataset,
                                         core::SelectionMethod method,
                                         ml::ModelKind model, double scale,
                                         uint64_t seed) {
  core::ExperimentConfig config;
  config.dataset = dataset;
  config.scale = scale;
  config.participants = 4;
  config.select = 2;
  config.method = method;
  config.model = model;
  config.backend = core::HeBackendKind::kPlain;  // sim times are backend-agnostic
  // The paper "randomly splits each dataset into four vertical partitions".
  config.partition = core::PartitionMode::kRandom;
  config.knn.k = 10;
  config.knn.num_queries = 256;
  // Baselines evaluate coalitions on the same query budget as the oracle
  // (the paper scores utilities on the validation set, not a subsample).
  config.utility_queries = 256;
  config.seed = seed;
  return config;
}

inline void RunOrDie(const char* what, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// A payload of `bytes` bytes 0, 1, 2, ... (mod 256), for the overhead
/// benches' BM_RawSendRecv and BM_ChannelSendRecv rows.
inline std::vector<uint8_t> MakePayload(size_t bytes) {
  std::vector<uint8_t> payload(bytes);
  for (size_t i = 0; i < bytes; ++i) payload[i] = static_cast<uint8_t>(i);
  return payload;
}

/// The data of the overhead benches' selection rows: a standardized
/// synthetic split (12 features, 6 informative and 3 redundant, seed 31;
/// 80/10/10) and a random 4-way column partition.
struct OverheadData {
  data::DataSplit split;
  data::VerticalPartition partition;

  explicit OverheadData(size_t rows) {
    data::SyntheticConfig config;
    config.num_samples = rows;
    config.num_features = 12;
    config.num_informative = 6;
    config.num_redundant = 3;
    config.seed = 31;
    auto generated = data::GenerateClassification(config);
    split = data::SplitDataset(generated->data, 0.8, 0.1, 5).MoveValueUnsafe();
    data::StandardizeSplit(&split).Abort("standardize");
    partition = data::RandomVerticalPartition(config.num_features, 4, 9)
                    .MoveValueUnsafe();
  }
};

/// \brief The BM_VfpsSmSelection set-up of bench_fault_overhead and
/// bench_obs_overhead, one definition so the two rows stay cross-comparable:
/// a Fig. 7-style VFPS-SM cell (4 participants, 400 rows, plain backend,
/// |Q| = 16, k = 6) at chaos-suite scale. Each bench attaches its fault plan
/// or metrics registry to `network`, `backend` and `ctx`, then times
/// `Select(ctx, 2)`. `ctx` points into the object, so it is not copyable.
struct OverheadSelection {
  OverheadData data{400};
  std::unique_ptr<he::HeBackend> backend = he::CreatePlainBackend();
  net::SimNetwork network;
  net::CostModel cost;
  SimClock clock;
  core::SelectionContext ctx;

  OverheadSelection() {
    ctx.split = &data.split;
    ctx.partition = &data.partition;
    ctx.backend = backend.get();
    ctx.network = &network;
    ctx.cost = &cost;
    ctx.clock = &clock;
    ctx.knn.k = 6;
    ctx.knn.num_queries = 16;
    ctx.seed = 11;
  }
  OverheadSelection(const OverheadSelection&) = delete;
  OverheadSelection& operator=(const OverheadSelection&) = delete;
};

}  // namespace vfps::bench

#endif  // VFPS_BENCH_BENCH_UTIL_H_
