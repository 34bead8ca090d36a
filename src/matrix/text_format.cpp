#include "matrix/text_format.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"

namespace mri {

std::string matrix_to_text(const Matrix& m) {
  std::string out;
  out.reserve(static_cast<std::size_t>(m.size()) * 20);
  char buf[40];
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) {
      std::snprintf(buf, sizeof(buf), "%.17g", m(i, j));
      out += buf;
      out += (j + 1 < m.cols()) ? ' ' : '\n';
    }
  }
  return out;
}

Matrix matrix_from_text(std::string_view text) {
  std::vector<double> values;
  Index cols = -1;
  Index rows = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;

    Index line_cols = 0;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    while (p < end) {
      while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
      if (p >= end) break;
      char* after = nullptr;
      // strtod needs NUL-terminated-ish input; line views point into `text`
      // which may not end with NUL at `end`, so bound-check after parsing.
      const double v = std::strtod(p, &after);
      MRI_REQUIRE(after != p, "unparsable matrix text near: "
                                  << std::string(p, std::min<std::size_t>(
                                                        16, end - p)));
      MRI_REQUIRE(after <= end, "number ran past end of line");
      MRI_REQUIRE(std::isfinite(v), "non-finite matrix entry '"
                                        << std::string_view(p, after - p)
                                        << "' in row " << rows);
      values.push_back(v);
      ++line_cols;
      p = after;
    }
    if (line_cols == 0) continue;  // blank line
    if (cols < 0) {
      cols = line_cols;
    } else {
      MRI_REQUIRE(line_cols == cols, "ragged matrix text: row " << rows
                                                                << " has "
                                                                << line_cols
                                                                << " columns");
    }
    ++rows;
  }
  if (rows == 0) return Matrix();
  return Matrix(rows, cols, std::move(values));
}

}  // namespace mri
