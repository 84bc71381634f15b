#include "data/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace vfps::data {

Result<Dataset> ParseCsv(const std::string& content, const CsvOptions& options) {
  std::vector<std::vector<double>> rows;
  std::vector<double> raw_labels;
  std::istringstream stream(content);
  std::string line;
  size_t line_no = 0;
  size_t num_columns = 0;
  bool skipped_header = !options.has_header;

  while (std::getline(stream, line)) {
    ++line_no;
    const std::string_view trimmed = TrimString(line);
    if (trimmed.empty()) continue;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    const auto cells = SplitString(trimmed, options.delimiter);
    if (num_columns == 0) {
      num_columns = cells.size();
      VFPS_CHECK_ARG(num_columns >= 2, "CSV: need at least 2 columns");
    } else if (cells.size() != num_columns) {
      return Status::InvalidArgument(
          StrFormat("CSV line %zu: expected %zu cells, got %zu", line_no,
                    num_columns, cells.size()));
    }
    const size_t label_col = options.label_column < 0
                                 ? num_columns - 1
                                 : static_cast<size_t>(options.label_column);
    if (label_col >= num_columns) {
      return Status::InvalidArgument("CSV: label column out of range");
    }
    std::vector<double> row;
    row.reserve(num_columns - 1);
    for (size_t c = 0; c < cells.size(); ++c) {
      auto value = ParseDouble(cells[c]);
      if (!value.ok()) {
        return Status::InvalidArgument(
            StrFormat("CSV line %zu column %zu: %s", line_no, c,
                      value.status().message().c_str()));
      }
      // strtod accepts "nan" and "inf"; one such cell would turn its whole
      // standardized column (or, as a label, llround) into garbage.
      if (!std::isfinite(*value)) {
        return Status::InvalidArgument(
            StrFormat("CSV line %zu column %zu: non-finite value '%s'", line_no,
                      c, std::string(TrimString(cells[c])).c_str()));
      }
      if (c == label_col) {
        raw_labels.push_back(*value);
      } else {
        row.push_back(*value);
      }
    }
    rows.push_back(std::move(row));
  }
  VFPS_CHECK_ARG(!rows.empty(), "CSV: no data rows");

  // Remap labels to a dense 0..C-1 range.
  std::map<long long, int> label_map;
  for (double raw : raw_labels) {
    const long long key = std::llround(raw);
    label_map.emplace(key, 0);
  }
  int next = 0;
  for (auto& [key, id] : label_map) id = next++;

  Dataset out(rows.size(), rows[0].size(), static_cast<int>(label_map.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), out.MutableRow(i));
    out.SetLabel(i, label_map.at(std::llround(raw_labels[i])));
  }
  return out;
}

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open CSV file: " + path);
  std::ostringstream content;
  content << file.rdbuf();
  return ParseCsv(content.str(), options);
}

}  // namespace vfps::data
