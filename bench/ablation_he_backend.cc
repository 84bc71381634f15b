// Ablation A1 (beyond the paper): HE backend choice. Runs the VFPS-SM
// selection protocol end to end with real CKKS, real Paillier, and the plain
// pass-through backend, reporting wall-clock of the actual cryptography and
// the (backend-independent) simulated deployment time.
//
// Usage: ablation_he_backend [--scale=0.25] [--queries=8] [--seed=42]

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"

using namespace vfps;          // NOLINT(build/namespaces)
using namespace vfps::bench;   // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.25);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 8));

  std::printf("Ablation: HE backend under VFPS-SM selection (Bank, P=4, "
              "|Q|=%zu, scale=%.2f)\n", queries, scale);
  std::printf("Paillier runs 512-bit keys here (1024 via the library API) with "
              "one ciphertext per value; CKKS packs 4096 values per ciphertext "
              "(one per coefficient at n=4096). The ckks-scalar row disables the packing "
              "(one slot used per ciphertext) — the layout every value paid "
              "before the batched HE API — so the ciphertext-op column "
              "isolates what slot batching saves.\n\n");

  struct Row {
    core::HeBackendKind kind;
    he::CkksPacking packing;
    const char* label;
  };
  const Row rows[] = {
      {core::HeBackendKind::kPlain, he::CkksPacking::kPacked, "plain"},
      {core::HeBackendKind::kCkks, he::CkksPacking::kPacked, "ckks"},
      {core::HeBackendKind::kCkks, he::CkksPacking::kScalar, "ckks-scalar"},
      {core::HeBackendKind::kPaillier, he::CkksPacking::kPacked, "paillier"},
  };
  TablePrinter table(
      {"Backend", "Wall(s)", "Sim selection(s)", "CT ops", "Picked"});
  for (const Row& row : rows) {
    auto config = GridConfig("Bank", core::SelectionMethod::kVfpsSm,
                             ml::ModelKind::kKnn, scale, seed);
    config.backend = row.kind;
    config.ckks_packing = row.packing;
    config.paillier_modulus_bits = 512;
    config.knn.num_queries = queries;
    Stopwatch wall;
    auto result = core::RunExperiment(config);
    RunOrDie(row.label, result.status());
    std::string picked;
    for (size_t p : result->selection.selected) {
      picked += (picked.empty() ? "" : ",") + std::to_string(p);
    }
    const he::HeOpStats& ops = result->selection.knn_stats.he_ops;
    table.AddRow({row.label, StrFormat("%.2f", wall.ElapsedSeconds()),
                  FormatSimSeconds(result->selection_sim_seconds),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        ops.encrypt_ops + ops.add_ops +
                                        ops.decrypt_ops)),
                  picked});
  }
  table.Print();
  std::printf("\nExpected: identical selections and identical simulated time "
              "across backends; wall-clock plain << ckks << paillier, and "
              "ckks-scalar pays orders of magnitude more ciphertext ops than "
              "packed ckks for the same slot-level work.\n");
  return 0;
}
