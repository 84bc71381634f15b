#include "data/libsvm_loader.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace vfps::data {

Result<Dataset> ParseLibsvm(const std::string& content, size_t num_features) {
  struct SparseRow {
    double label;
    std::vector<std::pair<size_t, double>> entries;  // 0-based index
  };
  std::vector<SparseRow> rows;
  size_t max_index = 0;

  std::istringstream stream(content);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::string_view trimmed = TrimString(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto tokens = SplitString(trimmed, ' ');
    SparseRow row;
    bool have_label = false;
    for (const auto& token : tokens) {
      const std::string_view t = TrimString(token);
      if (t.empty()) continue;
      if (!have_label) {
        VFPS_ASSIGN_OR_RETURN(row.label, ParseDouble(t));
        if (!std::isfinite(row.label)) {
          return Status::InvalidArgument(
              StrFormat("LIBSVM line %zu label: non-finite value '%s'", line_no,
                        std::string(t).c_str()));
        }
        have_label = true;
        continue;
      }
      const size_t colon = t.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument(
            StrFormat("LIBSVM line %zu: malformed entry", line_no));
      }
      VFPS_ASSIGN_OR_RETURN(int64_t index, ParseInt64(t.substr(0, colon)));
      VFPS_ASSIGN_OR_RETURN(double value, ParseDouble(t.substr(colon + 1)));
      if (index < 1) {
        return Status::InvalidArgument(
            StrFormat("LIBSVM line %zu: indices are 1-based", line_no));
      }
      // strtod accepts "nan" and "inf"; one such value would turn its whole
      // standardized column into garbage.
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(
            StrFormat("LIBSVM line %zu column %lld: non-finite value '%s'",
                      line_no, static_cast<long long>(index),
                      std::string(t.substr(colon + 1)).c_str()));
      }
      const size_t idx0 = static_cast<size_t>(index - 1);
      max_index = std::max(max_index, idx0 + 1);
      row.entries.emplace_back(idx0, value);
    }
    if (!have_label) {
      return Status::InvalidArgument(
          StrFormat("LIBSVM line %zu: missing label", line_no));
    }
    rows.push_back(std::move(row));
  }
  VFPS_CHECK_ARG(!rows.empty(), "LIBSVM: no data rows");

  const size_t width = num_features == 0 ? max_index : num_features;
  VFPS_CHECK_ARG(width >= max_index, "LIBSVM: num_features below max index");

  // Remap labels (e.g. -1/+1 or 1..C) to dense 0..C-1.
  std::map<long long, int> label_map;
  for (const auto& row : rows) label_map.emplace(std::llround(row.label), 0);
  int next = 0;
  for (auto& [key, id] : label_map) id = next++;

  Dataset out(rows.size(), width, static_cast<int>(label_map.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [idx, value] : rows[i].entries) out.Set(i, idx, value);
    out.SetLabel(i, label_map.at(std::llround(rows[i].label)));
  }
  return out;
}

Result<Dataset> LoadLibsvm(const std::string& path, size_t num_features) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open LIBSVM file: " + path);
  std::ostringstream content;
  content << file.rdbuf();
  return ParseLibsvm(content.str(), num_features);
}

}  // namespace vfps::data
