// Triangular kernels: Eq. 4 inversion and the two substitution solves that
// the block LU step parallelizes (Eq. 6), all as KernelContext TRSMs.
//
// Column independence is the property the paper's final MapReduce job
// exploits: invert_lower_columns() computes an arbitrary subset of columns of
// L⁻¹, which is exactly what one mapper does for its interleaved column set.
// Every function here rejects a zero or non-finite diagonal (InvalidArgument).
#pragma once

#include <vector>

#include "matrix/matrix.hpp"
#include "sim/io_stats.hpp"

namespace mri {

/// L⁻¹ for a lower-triangular L (diagonal may be non-unit): every column.
Matrix invert_lower(const Matrix& l);

/// U⁻¹ for an upper-triangular U, computed the way the paper's
/// implementation does (§4.1/§5.4): invert Uᵀ — a lower triangular matrix —
/// and transpose the result.
Matrix invert_upper_via_transpose(const Matrix& u);

/// U⁻¹ as the right solve X · U = I (a cross-check for tests).
Matrix invert_upper_direct(const Matrix& u);

/// Selected columns of L⁻¹. Returns an l.rows() x columns.size() matrix whose
/// k-th column is column columns[k] of L⁻¹ (zero above row columns[k]). The
/// ids, in any order and with repeats, are solved in ascending panels of 32.
Matrix invert_lower_columns(const Matrix& l, const std::vector<Index>& columns);

/// Solves L·X = B for X (forward substitution; columns of X independent).
Matrix solve_lower(const Matrix& l, const Matrix& b);

/// Solves X·U = B for X (each row of X independent — the L2' computation of
/// Eq. 6) by transposing U and calling the solve below.
Matrix solve_upper_right(const Matrix& u, const Matrix& b);

/// Same solve, but given Uᵀ (lower triangular) — the §6.3 layout: the
/// kernel streams rows of Uᵀ instead of striding columns of U.
Matrix solve_upper_right_from_transpose(const Matrix& ut, const Matrix& b);

/// Flop cost of inverting an n-order triangular matrix (~n³/6 each op).
IoStats triangular_inverse_cost(Index n);

/// Flop cost of a triangular solve with an n-order factor and m right-hand
/// sides (~n²m/2 each op).
IoStats triangular_solve_cost(Index n, Index rhs);

}  // namespace mri
