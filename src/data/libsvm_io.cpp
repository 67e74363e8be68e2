#include "data/libsvm_io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::data {

Dataset ReadLibsvm(std::istream& in, const LibsvmReadOptions& options) {
  std::vector<double> labels;
  std::vector<std::vector<linalg::CsrMatrix::Index>> row_cols;
  std::vector<std::vector<double>> row_vals;
  std::uint64_t max_col = 0;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;

    // from_chars accepts "nan"/"inf": reject them here, or a NaN label
    // would silently become -1 and a NaN feature would poison every solve.
    const double raw_label = ParseDouble(tokens[0]);
    PSRA_REQUIRE(std::isfinite(raw_label),
                 "line " + std::to_string(lineno) + ": non-finite label — " +
                     tokens[0]);
    labels.push_back(raw_label > 0 ? 1.0 : -1.0);

    std::vector<linalg::CsrMatrix::Index> cols;
    std::vector<double> vals;
    cols.reserve(tokens.size() - 1);
    vals.reserve(tokens.size() - 1);
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const auto colon = tokens[t].find(':');
      PSRA_REQUIRE(colon != std::string::npos,
                   "line " + std::to_string(lineno) +
                       ": feature token lacks ':' — " + tokens[t]);
      const std::int64_t one_based = ParseInt(tokens[t].substr(0, colon));
      PSRA_REQUIRE(one_based >= 1, "line " + std::to_string(lineno) +
                                       ": LIBSVM indices are 1-based");
      const auto col = static_cast<std::uint64_t>(one_based - 1);
      PSRA_REQUIRE(cols.empty() || cols.back() < col,
                   "line " + std::to_string(lineno) +
                       ": indices must be strictly increasing");
      const double value = ParseDouble(tokens[t].substr(colon + 1));
      PSRA_REQUIRE(std::isfinite(value),
                   "line " + std::to_string(lineno) +
                       ": non-finite feature value — " + tokens[t]);
      cols.push_back(col);
      vals.push_back(value);
      max_col = std::max(max_col, col + 1);
    }
    row_cols.push_back(std::move(cols));
    row_vals.push_back(std::move(vals));

    if (options.max_samples != 0 && labels.size() >= options.max_samples) {
      break;
    }
  }

  std::uint64_t dim = options.feature_dim != 0 ? options.feature_dim : max_col;
  PSRA_REQUIRE(dim >= max_col,
               "feature_dim smaller than max index found in file");
  if (dim == 0) dim = 1;  // empty file: keep a valid 1-column space

  linalg::CsrMatrix::Builder b(dim);
  for (std::size_t r = 0; r < row_cols.size(); ++r) {
    b.AddRow(row_cols[r], row_vals[r]);
  }
  return Dataset(b.Build(), std::move(labels));
}

Dataset ReadLibsvmFile(const std::string& path,
                       const LibsvmReadOptions& options) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open LIBSVM file: " + path);
  return ReadLibsvm(in, options);
}

void WriteLibsvm(const Dataset& ds, std::ostream& out) {
  const auto& m = ds.features();
  for (std::uint64_t r = 0; r < m.rows(); ++r) {
    out << (ds.labels()[static_cast<std::size_t>(r)] > 0 ? "+1" : "-1");
    const auto idx = m.RowIndices(r);
    const auto val = m.RowValues(r);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      out << ' ' << (idx[k] + 1) << ':' << FormatDouble(val[k], 9);
    }
    out << '\n';
  }
}

void WriteLibsvmFile(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open file for writing: " + path);
  WriteLibsvm(ds, out);
  PSRA_CHECK(static_cast<bool>(out), "write failed: " + path);
}

}  // namespace psra::data
