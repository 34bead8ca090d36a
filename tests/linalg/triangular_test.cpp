// Eq. 4 triangular inversion (panel by panel through the kernel TRSM) and
// the Eq. 6 substitution solves.
#include "linalg/triangular.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

class TriangularSweep : public ::testing::TestWithParam<Index> {};

// Random triangular factors grow exponentially ill-conditioned with n (the
// inverse of the order-257 unit lower factor has entries near 4e14), so
// past the fixed bound the check scales with the inverse, as the classic
// componentwise bound |T·X − B| <= c·n·u·|T|·|X| for triangular solves
// (B = I for the inverse); n is the factor's order.
double inverse_tol(double fixed, const Matrix& x) {
  const Index n = std::max(x.rows(), x.cols());
  return std::max(fixed, 1e-15 * static_cast<double>(n) * max_abs(x));
}

TEST_P(TriangularSweep, LowerInverse) {
  const Index n = GetParam();
  const Matrix l = random_unit_lower_triangular(n, /*seed=*/n);
  const Matrix inv = invert_lower(l);
  const double tol = inverse_tol(1e-9, inv);
  EXPECT_LT(max_abs_diff(matmul(l, inv), Matrix::identity(n)), tol);
  EXPECT_LT(max_abs_diff(matmul(inv, l), Matrix::identity(n)), tol);
}

TEST_P(TriangularSweep, UpperInverseBothWays) {
  const Index n = GetParam();
  const Matrix u = random_upper_triangular(n, /*seed=*/n + 1);
  const Matrix via_t = invert_upper_via_transpose(u);
  const Matrix direct = invert_upper_direct(u);
  EXPECT_LT(max_abs_diff(via_t, direct),
            std::max(1e-9, 1e-13 * max_abs(via_t)));
  EXPECT_LT(max_abs_diff(matmul(u, via_t), Matrix::identity(n)),
            inverse_tol(1e-8, via_t));
}

TEST_P(TriangularSweep, SolveLower) {
  const Index n = GetParam();
  const Matrix l = random_unit_lower_triangular(n, /*seed=*/n + 2);
  const Matrix b = random_matrix(n, 5, /*seed=*/n + 3, -1, 1);
  const Matrix x = solve_lower(l, b);
  EXPECT_LT(max_abs_diff(matmul(l, x), b), inverse_tol(1e-9, x));
}

TEST_P(TriangularSweep, SolveUpperRight) {
  const Index n = GetParam();
  const Matrix u = random_upper_triangular(n, /*seed=*/n + 4);
  const Matrix b = random_matrix(5, n, /*seed=*/n + 5, -1, 1);
  const Matrix x = solve_upper_right(u, b);
  EXPECT_LT(max_abs_diff(matmul(x, u), b), inverse_tol(1e-8, x));
  // Transposed-layout variant agrees.
  const Matrix xt = solve_upper_right_from_transpose(transpose(u), b);
  EXPECT_LT(max_abs_diff(x, xt), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriangularSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 33, 64, 65, 100,
                                           129, 257));

TEST(Triangular, NonUnitLowerDiagonal) {
  Matrix l(2, 2, {2, 0, 3, 4});
  const Matrix inv = invert_lower(l);
  EXPECT_LT(max_abs_diff(matmul(l, inv), Matrix::identity(2)), 1e-15);
  EXPECT_DOUBLE_EQ(inv(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(inv(1, 1), 0.25);
}

TEST(Triangular, SingularDiagonalThrows) {
  Matrix l(2, 2, {1, 0, 3, 0});
  EXPECT_THROW(invert_lower(l), InvalidArgument);
  EXPECT_THROW(invert_lower_columns(l, {0}), InvalidArgument);
  EXPECT_THROW(solve_lower(l, Matrix(2, 1)), InvalidArgument);
}

TEST(Triangular, NonFiniteDiagonalThrows) {
  // NaN != 0.0 is true, so a bare zero test would pass a NaN pivot.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const Matrix l(2, 2, {1, 0, 3, bad});
    EXPECT_THROW(invert_lower(l), InvalidArgument) << bad;
    EXPECT_THROW(invert_lower_columns(l, {0}), InvalidArgument) << bad;
    EXPECT_THROW(solve_lower(l, Matrix(2, 1)), InvalidArgument) << bad;
    EXPECT_THROW(solve_upper_right_from_transpose(l, Matrix(1, 2)),
                 InvalidArgument)
        << bad;
    const Matrix u(2, 2, {bad, 3, 0, 1});
    EXPECT_THROW(invert_upper_via_transpose(u), InvalidArgument) << bad;
    EXPECT_THROW(invert_upper_direct(u), InvalidArgument) << bad;
    EXPECT_THROW(solve_upper_right(u, Matrix(1, 2)), InvalidArgument) << bad;
  }
}

TEST(Triangular, ColumnSubsetMatchesFullInverse) {
  const Matrix l = random_unit_lower_triangular(24, /*seed=*/9);
  const Matrix full = invert_lower(l);
  // The §5.4 interleaved pattern: every 4th column starting at 1.
  std::vector<Index> ids;
  for (Index k = 1; k < 24; k += 4) ids.push_back(k);
  const Matrix cols = invert_lower_columns(l, ids);
  ASSERT_EQ(cols.cols(), static_cast<Index>(ids.size()));
  for (std::size_t c = 0; c < ids.size(); ++c) {
    for (Index i = 0; i < 24; ++i) {
      EXPECT_NEAR(cols(i, static_cast<Index>(c)), full(i, ids[c]), 1e-12);
    }
  }
}

// Column j of L⁻¹ by scalar forward substitution of e_j (Eq. 4), kept
// here as the reference the panel solve is checked against.
std::vector<double> inverse_column_reference(const Matrix& l, Index j) {
  std::vector<double> col(static_cast<std::size_t>(l.rows()), 0.0);
  for (Index i = j; i < l.rows(); ++i) {
    double sum = i == j ? 1.0 : 0.0;
    for (Index k = j; k < i; ++k) {
      sum -= l(i, k) * col[static_cast<std::size_t>(k)];
    }
    col[static_cast<std::size_t>(i)] = sum / l(i, i);
  }
  return col;
}

// Non-unit diagonal and off-diagonals in ±1/n keep every column tame.
Matrix bounded_lower(Index n, std::uint64_t seed) {
  Matrix l = random_matrix(n, n, seed, -1, 1);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < i; ++k) l(i, k) /= static_cast<double>(n);
    l(i, i) = (i % 2 == 0 ? 1.5 : -2.5);
    for (Index k = i + 1; k < n; ++k) l(i, k) = 0.0;
  }
  return l;
}

void expect_columns_of_inverse(const Matrix& l, const std::vector<Index>& ids) {
  const Matrix cols = invert_lower_columns(l, ids);
  ASSERT_EQ(cols.rows(), l.rows());
  ASSERT_EQ(cols.cols(), static_cast<Index>(ids.size()));
  for (std::size_t c = 0; c < ids.size(); ++c) {
    const Index j = ids[c];
    const std::vector<double> ref = inverse_column_reference(l, j);
    for (Index i = 0; i < l.rows(); ++i) {
      const double got = cols(i, static_cast<Index>(c));
      if (i < j) {
        // Above the diagonal: exactly +0.0, not merely small.
        ASSERT_EQ(got, 0.0) << "column " << j << " row " << i;
        ASSERT_FALSE(std::signbit(got)) << "column " << j << " row " << i;
      } else {
        ASSERT_NEAR(got, ref[static_cast<std::size_t>(i)], 1e-12)
            << "column " << j << " row " << i;
      }
    }
  }
}

TEST(Triangular, ColumnPanelsInterleavedIds) {
  // The §5.4 mapper pattern: ids r, r + m0, r + 2·m0, ...; with m0 = 1 one
  // mapper takes every column, so the set spans many 32-column panels.
  const Index n = 150;
  const Matrix l = bounded_lower(n, /*seed=*/41);
  for (const Index m0 : {1, 3, 8}) {
    for (Index r = 0; r < m0; r += std::max<Index>(1, m0 - 1)) {
      std::vector<Index> ids;
      for (Index j = r; j < n; j += m0) ids.push_back(j);
      SCOPED_TRACE(testing::Message() << "m0=" << m0 << " r=" << r);
      expect_columns_of_inverse(l, ids);
    }
  }
}

TEST(Triangular, ColumnPanelsUnsortedWithDuplicates) {
  // 71 ids (not a multiple of the panel width) in scrambled order, with
  // repeats that land in different panels and in the same one.
  const Index n = 140;
  const Matrix l = bounded_lower(n, /*seed=*/42);
  std::vector<Index> ids;
  for (Index k = 0; k < 64; ++k) ids.push_back((k * 37 + 11) % n);
  for (const Index dup : {ids[0], ids[5], ids[5], ids[40], Index{139}, Index{0},
                          ids[63]}) {
    ids.push_back(dup);
  }
  ASSERT_EQ(ids.size(), 71u);
  expect_columns_of_inverse(l, ids);
}

TEST(Triangular, ColumnSubsetEmpty) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/10);
  const Matrix cols = invert_lower_columns(l, {});
  EXPECT_EQ(cols.rows(), 4);
  EXPECT_EQ(cols.cols(), 0);
}

TEST(Triangular, ColumnSubsetOutOfRangeThrows) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/11);
  EXPECT_THROW(invert_lower_columns(l, {4}), InvalidArgument);
}

TEST(Triangular, SolveShapeMismatchThrows) {
  const Matrix l = random_unit_lower_triangular(4, /*seed=*/12);
  EXPECT_THROW(solve_lower(l, Matrix(5, 2)), InvalidArgument);
  const Matrix u = random_upper_triangular(4, /*seed=*/13);
  EXPECT_THROW(solve_upper_right(u, Matrix(2, 5)), InvalidArgument);
}

TEST(Triangular, CostModels) {
  EXPECT_EQ(triangular_inverse_cost(60).mults, 60ull * 60 * 60 / 6);
  EXPECT_EQ(triangular_solve_cost(10, 4).mults, 10ull * 10 * 4 / 2);
}

}  // namespace
}  // namespace mri
