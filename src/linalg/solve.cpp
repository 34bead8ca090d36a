#include "linalg/solve.hpp"

#include <numeric>
#include <utility>

#include "linalg/triangular.hpp"
#include "matrix/ops.hpp"

namespace mri {

Matrix invert_via_lu(const Matrix& a) {
  LuResult lu = lu_decompose(a);
  const Matrix l_inv = invert_lower(lu.unit_lower());
  const Matrix u_inv = invert_upper_via_transpose(lu.upper());
  // A⁻¹ = U⁻¹ L⁻¹ P: column k of U⁻¹L⁻¹ lands at column S[k].
  return lu.perm.apply_to_columns(matmul(u_inv, l_inv));
}

Matrix solve_matrix(const Matrix& a, const Matrix& b) {
  MRI_REQUIRE(a.rows() == b.rows(), "solve shape mismatch: " << a.rows()
                                                             << " vs "
                                                             << b.rows());
  LuResult lu = lu_decompose(a);
  // P·A·X = P·B  =>  L·U·X = P·B.
  const Matrix pb = lu.perm.apply_to_rows(b);
  const Matrix y = solve_lower(lu.unit_lower(), pb);
  // Back substitution U·X = Y as a forward one: with J the order reversal,
  // (J·U·J)·(J·X) = J·Y and J·U·J is lower triangular.
  std::vector<Index> reversal(static_cast<std::size_t>(a.rows()));
  std::iota(reversal.rbegin(), reversal.rend(), Index{0});
  const Permutation j(std::move(reversal));
  return j.apply_to_rows(
      solve_lower(j.apply_to_columns(j.apply_to_rows(lu.upper())),
                  j.apply_to_rows(y)));
}

std::vector<double> solve(const Matrix& a, const std::vector<double>& b) {
  MRI_REQUIRE(static_cast<Index>(b.size()) == a.rows(),
              "solve vector length mismatch");
  Matrix bm(a.rows(), 1, std::vector<double>(b));
  Matrix x = solve_matrix(a, bm);
  std::vector<double> out(static_cast<std::size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) out[static_cast<std::size_t>(i)] = x(i, 0);
  return out;
}

}  // namespace mri
