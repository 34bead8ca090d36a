#include "linalg/triangular.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels/kernel.hpp"
#include "matrix/ops.hpp"

namespace mri {

namespace {

// A zero or non-finite diagonal makes the factor singular (NaN != 0.0 is
// true, so the finiteness test is what rejects a NaN pivot).
void check_triangular(const Matrix& t) {
  MRI_REQUIRE(t.square(), "expected a square triangular matrix");
  for (Index i = 0; i < t.rows(); ++i) {
    MRI_REQUIRE(std::isfinite(t(i, i)) && t(i, i) != 0.0,
                "triangular matrix is singular at diagonal " << i);
  }
}

// Requested columns are solved this many at a time, as one TRSM each.
constexpr std::size_t kPanel = 32;

}  // namespace

Matrix invert_lower(const Matrix& l) {
  std::vector<Index> all(static_cast<std::size_t>(l.rows()));
  std::iota(all.begin(), all.end(), Index{0});
  return invert_lower_columns(l, all);
}

Matrix invert_upper_via_transpose(const Matrix& u) {
  return transpose(invert_lower(transpose(u)));
}

Matrix invert_upper_direct(const Matrix& u) {
  return solve_upper_right(u, Matrix::identity(u.rows()));
}

Matrix invert_lower_columns(const Matrix& l, const std::vector<Index>& columns) {
  check_triangular(l);
  const Index n = l.rows();
  for (const Index j : columns) {
    MRI_REQUIRE(j >= 0 && j < n, "column index " << j << " out of order " << n);
  }
  // Eq. 4 panel by panel, in ascending column order: with lo the panel's
  // smallest column, column j of L⁻¹ is zero above row j and its rows lo..
  // solve L[lo:, lo:] · X = E, where E holds a 1 at (j - lo) per column.
  std::vector<std::size_t> order(columns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, {},
                           [&](std::size_t k) { return columns[k]; });
  Matrix out(n, static_cast<Index>(columns.size()));
  const kernels::KernelContext ctx;
  for (std::size_t p0 = 0; p0 < order.size(); p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, order.size());
    const Index w = static_cast<Index>(p1 - p0);
    // Panel column c is output column slot(c), which is L⁻¹'s column id(c).
    const auto slot = [&](Index c) {
      return order[p0 + static_cast<std::size_t>(c)];
    };
    const auto id = [&](Index c) { return columns[slot(c)]; };
    const Index lo = id(0);
    Matrix x(n - lo, w);
    for (Index c = 0; c < w; ++c) x(id(c) - lo, c) = 1.0;
    ctx.trsm_lower_left(/*unit_diag=*/false, n - lo, w, &l.row(lo)[lo],
                        l.cols(), x.data().data(), w);
    // Row by row; above each column's own diagonal out keeps exact zeros.
    for (Index i = lo; i < n; ++i) {
      for (Index c = 0; c < w; ++c) {
        if (id(c) <= i) out(i, static_cast<Index>(slot(c))) = x(i - lo, c);
      }
    }
  }
  return out;
}

Matrix solve_lower(const Matrix& l, const Matrix& b) {
  check_triangular(l);
  MRI_REQUIRE(l.rows() == b.rows(), "solve_lower shape mismatch: "
                                        << l.rows() << " vs " << b.rows());
  Matrix x = b;
  kernels::KernelContext ctx;
  ctx.trsm_lower_left(/*unit_diag=*/false, l.rows(), b.cols(),
                      l.data().data(), l.cols(), x.data().data(), x.cols());
  return x;
}

Matrix solve_upper_right(const Matrix& u, const Matrix& b) {
  return solve_upper_right_from_transpose(transpose(u), b);
}

Matrix solve_upper_right_from_transpose(const Matrix& ut, const Matrix& b) {
  check_triangular(ut);
  MRI_REQUIRE(ut.rows() == b.cols(),
              "solve_upper_right_from_transpose shape mismatch: " << ut.rows()
                                                                  << " vs "
                                                                  << b.cols());
  // The kernel streams rows of the transposed-stored factor (§6.3).
  Matrix x = b;
  kernels::KernelContext ctx;
  ctx.trsm_upper_right_from_transpose(b.rows(), ut.rows(), ut.data().data(),
                                      ut.cols(), x.data().data(), x.cols());
  return x;
}

IoStats triangular_inverse_cost(Index n) {
  IoStats io;
  const auto cube = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n);
  io.mults = cube / 6;
  io.adds = cube / 6;
  return io;
}

IoStats triangular_solve_cost(Index n, Index rhs) {
  IoStats io;
  const auto work = static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(rhs) / 2;
  io.mults = work;
  io.adds = work;
  return io;
}

}  // namespace mri
