// The benchmark's own correctness oracle for an inverse X of A.
//
// The library's max_abs_diff() folds with std::max, which drops NaN, so a
// NaN inverse reads as residual 0. This check cannot be fooled that way:
//   * every entry of X must be finite;
//   * max|I - A·X| is folded so that a NaN anywhere makes the result NaN;
//   * the normwise relative residual ||I - A·X||inf / (||A||inf ||X||inf n eps)
//     must stay below 30, the threshold LAPACK's own inverse tests (xGET03)
//     apply to this ratio.
// A·X is computed with the cache-blocked `tiled` kernel backend, not the
// process default, so a fault in the default (SIMD) backend cannot hide
// itself by producing a matching product.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "linalg/kernels/kernel.hpp"
#include "matrix/matrix.hpp"

namespace perfbench {

struct InverseCheck {
  bool finite = false;
  double max_abs_residual = std::numeric_limits<double>::quiet_NaN();
  double rel_residual = std::numeric_limits<double>::quiet_NaN();
  bool ok = false;
};

/// Pass thresholds: the element-wise gate every repo bench and test uses,
/// and LAPACK's test threshold for the normwise ratio.
inline constexpr double kMaxAbsResidual = 1e-8;
inline constexpr double kMaxRelResidual = 30.0;

/// max(m, d) that keeps a NaN once it has been seen.
inline double nan_max(double m, double d) {
  return (d > m || std::isnan(d)) && !std::isnan(m) ? d : m;
}

/// Infinity-norm (max row sum of |a_ij|), NaN-propagating.
inline double inf_norm(const mri::Matrix& a) {
  double norm = 0.0;
  for (mri::Index i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (const double v : a.row(i)) sum += std::fabs(v);
    norm = nan_max(norm, sum);
  }
  return norm;
}

inline InverseCheck check_inverse(const mri::Matrix& a, const mri::Matrix& x) {
  InverseCheck out;
  if (!a.square() || !x.same_shape(a) || a.rows() == 0) return out;
  out.finite = true;
  for (const double v : x.data()) {
    if (!std::isfinite(v)) {
      out.finite = false;
      break;
    }
  }
  const std::int64_t n = a.rows();
  mri::Matrix r(n, n);
  mri::kernels::KernelContext ctx;
  ctx.backend = mri::kernels::Backend::kTiled;
  ctx.gemm(mri::kernels::GemmMode::kAssign, n, n, n, a.data().data(), n,
           x.data().data(), n, r.data().data(), n);
  double max_abs = 0.0;
  double row_norm = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      const double d = std::fabs((i == j ? 1.0 : 0.0) - r(i, j));
      max_abs = nan_max(max_abs, d);
      row_sum += d;
    }
    row_norm = nan_max(row_norm, row_sum);
  }
  out.max_abs_residual = max_abs;
  const double scale = inf_norm(a) * inf_norm(x) * static_cast<double>(n) *
                       std::numeric_limits<double>::epsilon();
  out.rel_residual = row_norm / scale;
  // Comparisons with NaN are false, so a NaN residual fails here.
  out.ok = out.finite && max_abs < kMaxAbsResidual &&
           out.rel_residual < kMaxRelResidual;
  return out;
}

/// FNV-1a over `bytes` bytes at `data`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of X's shape and bits: two outputs with the same hash are treated
/// as the same output and share one check verdict.
inline std::uint64_t matrix_hash(const mri::Matrix& x) {
  return fnv1a(x.data().data(), x.data().size() * sizeof(double)) ^
         static_cast<std::uint64_t>(x.rows());
}

}  // namespace perfbench
