// Text matrix codec — the paper's "a.txt" input format: one matrix row per
// line, elements space-separated. Used to ingest matrices the way the Hadoop
// implementation does; the pipeline's intermediate data uses the binary
// format in dfs_io.hpp.
#pragma once

#include <string>
#include <string_view>

#include "matrix/matrix.hpp"

namespace mri {

/// Renders with enough digits to round-trip doubles exactly (%.17g).
std::string matrix_to_text(const Matrix& m);

/// Parses; all rows must have equal length and every entry must be finite
/// (InvalidArgument otherwise: "nan" and "inf" parse as numbers but are no
/// matrix data). Blank lines are ignored.
Matrix matrix_from_text(std::string_view text);

}  // namespace mri
