// The kernel engine: cross-backend equivalence, GEMM modes, recursive TRSMs
// against reference substitution, determinism, threading and counters.
#include "linalg/kernels/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri::kernels {
namespace {

Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i)
    for (Index k = 0; k < a.cols(); ++k)
      for (Index j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
  return c;
}

Matrix run_gemm(Backend backend, GemmMode mode, const Matrix& a,
                const Matrix& b, Matrix c) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.gemm(mode, a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(),
           b.data().data(), b.cols(), c.data().data(), c.cols());
  return c;
}

Matrix run_gemm_bt(Backend backend, GemmMode mode, const Matrix& a,
                   const Matrix& bt, Matrix c) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.gemm_bt(mode, a.rows(), bt.rows(), a.cols(), a.data().data(), a.cols(),
              bt.data().data(), bt.cols(), c.data().data(), c.cols());
  return c;
}

const std::vector<Backend> kAllBackends = {Backend::kNaive, Backend::kTiled,
                                           Backend::kSimd, Backend::kThreaded};

TEST(KernelBackend, NamesRoundTrip) {
  for (const Backend b : kAllBackends) {
    Backend parsed;
    ASSERT_TRUE(parse_backend(backend_name(b), &parsed)) << backend_name(b);
    EXPECT_EQ(parsed, b);
  }
  Backend out = Backend::kNaive;
  EXPECT_FALSE(parse_backend("blas", &out));
  EXPECT_EQ(out, Backend::kNaive);  // untouched on failure
}

TEST(KernelBackend, AvailabilityAndDefault) {
  EXPECT_TRUE(backend_available(Backend::kNaive));
  EXPECT_TRUE(backend_available(Backend::kTiled));
  EXPECT_TRUE(backend_available(Backend::kThreaded));
  // kSimd may be unavailable off-x86; the default must always be runnable.
  EXPECT_TRUE(backend_available(default_backend()));
  const Backend saved = default_backend();
  set_default_backend(Backend::kTiled);
  EXPECT_EQ(default_backend(), Backend::kTiled);
  set_default_backend(saved);
}

// Non-tile-multiple shapes on purpose: 129 x 65 · 65 x 31 exercises every
// edge strip of the tiled and SIMD microkernels.
class GemmShapes
    : public ::testing::TestWithParam<std::tuple<Index, Index, Index>> {};

TEST_P(GemmShapes, BackendsMatchReferenceWithinTolerance) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, /*seed=*/m + k, -1, 1);
  const Matrix b = random_matrix(k, n, /*seed=*/k + n + 7, -1, 1);
  const Matrix ref = gemm_reference(a, b);
  const double tol = 1e-12 * static_cast<double>(k + 1);
  for (const Backend backend : kAllBackends) {
    const Matrix c = run_gemm(backend, GemmMode::kAssign, a, b, Matrix(m, n));
    EXPECT_LT(max_abs_diff(c, ref), tol) << backend_name(backend);
  }
}

TEST_P(GemmShapes, TransposedBMatchesGemm) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, /*seed=*/m + k + 1, -1, 1);
  const Matrix b = random_matrix(k, n, /*seed=*/k + n + 8, -1, 1);
  const Matrix bt = transpose(b);
  const Matrix ref = gemm_reference(a, b);
  const double tol = 1e-12 * static_cast<double>(k + 1);
  for (const Backend backend : kAllBackends) {
    const Matrix c =
        run_gemm_bt(backend, GemmMode::kAssign, a, bt, Matrix(m, n));
    EXPECT_LT(max_abs_diff(c, ref), tol) << backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple<Index, Index, Index>(1, 1, 1),
                      std::make_tuple<Index, Index, Index>(4, 8, 8),
                      std::make_tuple<Index, Index, Index>(3, 5, 2),
                      std::make_tuple<Index, Index, Index>(129, 65, 31),
                      std::make_tuple<Index, Index, Index>(64, 300, 17),
                      std::make_tuple<Index, Index, Index>(31, 1, 9),
                      std::make_tuple<Index, Index, Index>(97, 257, 33)));

TEST(Gemm, ModesCombineCorrectly) {
  const Matrix a = random_matrix(13, 17, 1, -1, 1);
  const Matrix b = random_matrix(17, 11, 2, -1, 1);
  const Matrix product = gemm_reference(a, b);
  const Matrix c0 = random_matrix(13, 11, 3, -1, 1);
  for (const Backend backend : kAllBackends) {
    const Matrix assigned = run_gemm(backend, GemmMode::kAssign, a, b, c0);
    const Matrix accumulated =
        run_gemm(backend, GemmMode::kAccumulate, a, b, c0);
    const Matrix subtracted = run_gemm(backend, GemmMode::kSubtract, a, b, c0);
    EXPECT_LT(max_abs_diff(assigned, product), 1e-10) << backend_name(backend);
    EXPECT_LT(max_abs_diff(accumulated, add(c0, product)), 1e-10)
        << backend_name(backend);
    EXPECT_LT(max_abs_diff(subtracted, subtract(c0, product)), 1e-10)
        << backend_name(backend);
  }
}

TEST(Gemm, AssignZerosCWhenKIsZero) {
  Matrix c = random_matrix(5, 4, 9, -1, 1);
  KernelContext ctx;
  ctx.gemm(GemmMode::kAssign, 5, 4, 0, nullptr, 1, nullptr, 1,
           c.data().data(), c.cols());
  EXPECT_EQ(max_abs(c), 0.0);
}

TEST(Gemm, EachBackendIsDeterministic) {
  const Matrix a = random_matrix(65, 129, 4, -1, 1);
  const Matrix b = random_matrix(129, 33, 5, -1, 1);
  for (const Backend backend : kAllBackends) {
    const Matrix first =
        run_gemm(backend, GemmMode::kAssign, a, b, Matrix(65, 33));
    const Matrix second =
        run_gemm(backend, GemmMode::kAssign, a, b, Matrix(65, 33));
    EXPECT_EQ(first, second) << backend_name(backend);  // bitwise
  }
}

TEST(Gemm, ThreadedMatchesSerialBitwise) {
  // kThreaded partitions rows over the serial backend with chunks aligned
  // to the microkernel's row group, so the arithmetic per row is identical.
  const Matrix a = random_matrix(67, 130, 6, -1, 1);
  const Matrix b = random_matrix(130, 29, 7, -1, 1);
  const Backend serial =
      backend_available(Backend::kSimd) ? Backend::kSimd : Backend::kTiled;
  const Matrix expected =
      run_gemm(serial, GemmMode::kAssign, a, b, Matrix(67, 29));
  KernelContext ctx;
  ctx.backend = Backend::kThreaded;
  for (const int threads : {1, 2, 3, 8}) {
    ctx.threads = threads;
    Matrix c(67, 29);
    ctx.gemm(GemmMode::kAssign, 67, 29, 130, a.data().data(), a.cols(),
             b.data().data(), b.cols(), c.data().data(), c.cols());
    EXPECT_EQ(c, expected) << threads << " threads";
  }
}

// Textbook substitutions, independent of the kernel engine.
Matrix trsm_lower_reference(bool unit_diag, const Matrix& l, const Matrix& b) {
  Matrix x = b;
  for (Index i = 0; i < l.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      double sum = x(i, j);
      for (Index p = 0; p < i; ++p) sum -= l(i, p) * x(p, j);
      x(i, j) = unit_diag ? sum : sum / l(i, i);
    }
  }
  return x;
}

// X · U = B with ut = Uᵀ: x_ij = (b_ij - Σ_{p<j} x_ip · ut(j, p)) / ut(j, j).
Matrix trsm_upper_reference(const Matrix& ut, const Matrix& b) {
  Matrix x = b;
  for (Index i = 0; i < b.rows(); ++i) {
    for (Index j = 0; j < ut.rows(); ++j) {
      double sum = x(i, j);
      for (Index p = 0; p < j; ++p) sum -= x(i, p) * ut(j, p);
      x(i, j) = sum / ut(j, j);
    }
  }
  return x;
}

// A lower-triangular factor whose solves stay well conditioned at every
// order (off-diagonals in ±1/m). Entries a solve must not read are NaN, so
// touching one poisons the result: the strict upper triangle always, and
// the diagonal too when it is implicitly unit.
Matrix trsm_factor(Index m, bool unit_diag, std::uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix l = random_matrix(m, m, seed, -1, 1);
  for (Index i = 0; i < m; ++i) {
    for (Index p = 0; p < i; ++p) l(i, p) /= static_cast<double>(m);
    l(i, i) = unit_diag ? nan : 2.0 + static_cast<double>(i % 3);
    for (Index p = i + 1; p < m; ++p) l(i, p) = nan;
  }
  return l;
}

double rel_diff(const Matrix& x, const Matrix& ref) {
  return max_abs_diff(x, ref) / std::max(max_abs(ref), 1e-300);
}

Matrix run_trsm_lower(Backend backend, int threads, bool unit_diag,
                      const Matrix& l, Matrix b) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.threads = threads;
  ctx.trsm_lower_left(unit_diag, b.rows(), b.cols(), l.data().data(),
                      l.cols(), b.data().data(), b.cols());
  return b;
}

Matrix run_trsm_upper(Backend backend, int threads, const Matrix& ut,
                      Matrix b) {
  KernelContext ctx;
  ctx.backend = backend;
  ctx.threads = threads;
  ctx.trsm_upper_right_from_transpose(b.rows(), b.cols(), ut.data().data(),
                                      ut.cols(), b.data().data(), b.cols());
  return b;
}

const Backend kSerialBest =
    backend_available(Backend::kSimd) ? Backend::kSimd : Backend::kTiled;

// Orders straddling the recursive TRSM's 16-row leaf, its 8-aligned splits
// and the old 64-row diagonal block; m is the triangle's order, n the other
// extent of B.
class TrsmGrid
    : public ::testing::TestWithParam<std::tuple<Index, Index>> {};

TEST_P(TrsmGrid, LowerLeftEveryBackendMatchesNaive) {
  const auto [m, n] = GetParam();
  for (const bool unit_diag : {false, true}) {
    const Matrix l = trsm_factor(m, unit_diag, /*seed=*/m * 131 + n);
    const Matrix b = random_matrix(m, n, /*seed=*/m + n + 5, -1, 1);
    const Matrix naive =
        run_trsm_lower(Backend::kNaive, 0, unit_diag, l, b);
    ASSERT_LT(rel_diff(naive, trsm_lower_reference(unit_diag, l, b)), 1e-12);
    for (const Backend backend : kAllBackends) {
      if (!backend_available(backend)) continue;
      const Matrix x = run_trsm_lower(backend, 0, unit_diag, l, b);
      EXPECT_LT(rel_diff(x, naive), 1e-12)
          << backend_name(backend) << " unit=" << unit_diag;
      EXPECT_EQ(run_trsm_lower(backend, 0, unit_diag, l, b), x)  // bitwise
          << backend_name(backend) << " unit=" << unit_diag;
    }
    const Matrix serial = run_trsm_lower(kSerialBest, 0, unit_diag, l, b);
    for (const int threads : {2, 3}) {
      EXPECT_EQ(run_trsm_lower(Backend::kThreaded, threads, unit_diag, l, b),
                serial)
          << threads << " threads, unit=" << unit_diag;
    }
  }
}

TEST_P(TrsmGrid, UpperRightEveryBackendMatchesNaive) {
  const auto [n, m] = GetParam();
  // A unit-valued diagonal and a general one (this solve always divides).
  for (const bool unit_valued : {false, true}) {
    Matrix ut = trsm_factor(n, /*unit_diag=*/false, /*seed=*/n * 137 + m);
    if (unit_valued) {
      for (Index i = 0; i < n; ++i) ut(i, i) = 1.0;
    }
    const Matrix b = random_matrix(m, n, /*seed=*/m + n + 9, -1, 1);
    const Matrix naive = run_trsm_upper(Backend::kNaive, 0, ut, b);
    ASSERT_LT(rel_diff(naive, trsm_upper_reference(ut, b)), 1e-12);
    for (const Backend backend : kAllBackends) {
      if (!backend_available(backend)) continue;
      const Matrix x = run_trsm_upper(backend, 0, ut, b);
      EXPECT_LT(rel_diff(x, naive), 1e-12)
          << backend_name(backend) << " unit=" << unit_valued;
      EXPECT_EQ(run_trsm_upper(backend, 0, ut, b), x)  // bitwise
          << backend_name(backend) << " unit=" << unit_valued;
    }
    const Matrix serial = run_trsm_upper(kSerialBest, 0, ut, b);
    for (const int threads : {2, 3}) {
      EXPECT_EQ(run_trsm_upper(Backend::kThreaded, threads, ut, b), serial)
          << threads << " threads, unit=" << unit_valued;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TrsmGrid,
    ::testing::Combine(::testing::Values(1, 7, 8, 9, 31, 33, 63, 65, 130),
                       ::testing::Values(1, 7, 8, 9, 31, 33, 63, 65, 130)));

TEST(Trsm, SubBlocksHonourLeadingDimensions) {
  // Solving in place inside larger buffers (as the blocked LU and the
  // panel inversion do) gives bit-for-bit the tightly packed answer.
  const Index m = 70, n = 45, pad = 5;
  const Matrix l = trsm_factor(m, false, 21);
  const Matrix b = random_matrix(m, n, 22, -1, 1);
  const Matrix ut = trsm_factor(n, false, 23);
  for (const Backend backend : kAllBackends) {
    Matrix lw(m + 1, m + pad), bw(m + 2, n + pad), uw(n + 1, n + pad),
        cw(m + 2, n + pad);
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < m; ++j) lw(i + 1, j + pad) = l(i, j);
      for (Index j = 0; j < n; ++j) {
        bw(i + 2, j + pad) = cw(i + 2, j + pad) = b(i, j);
      }
    }
    for (Index i = 0; i < n; ++i)
      for (Index j = 0; j < n; ++j) uw(i + 1, j + pad) = ut(i, j);
    KernelContext ctx;
    ctx.backend = backend;
    ctx.trsm_lower_left(false, m, n, &lw.row(1)[pad], lw.cols(),
                        &bw.row(2)[pad], bw.cols());
    ctx.trsm_upper_right_from_transpose(m, n, &uw.row(1)[pad], uw.cols(),
                                        &cw.row(2)[pad], cw.cols());
    const Matrix lower = run_trsm_lower(backend, 0, false, l, b);
    const Matrix upper = run_trsm_upper(backend, 0, ut, b);
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        ASSERT_EQ(bw(i + 2, j + pad), lower(i, j)) << backend_name(backend);
        ASSERT_EQ(cw(i + 2, j + pad), upper(i, j)) << backend_name(backend);
      }
    }
  }
}

TEST(KernelCounters, CountCallsAndFlops) {
  const Matrix a = random_matrix(8, 6, 1, -1, 1);
  const Matrix b = random_matrix(6, 10, 2, -1, 1);
  const KernelCounters before = counters_snapshot();
  run_gemm(Backend::kTiled, GemmMode::kAssign, a, b, Matrix(8, 10));
  Matrix l = random_matrix(5, 5, 3, -1, 1);
  for (Index i = 0; i < 5; ++i) l(i, i) = 2.0;
  Matrix x = random_matrix(5, 4, 4, -1, 1);
  KernelContext ctx;
  ctx.trsm_lower_left(false, 5, 4, l.data().data(), 5, x.data().data(), 4);
  const KernelCounters delta = counters_snapshot() - before;
  EXPECT_EQ(delta.gemm_calls, 1u);  // TRSM-internal GEMMs are not re-counted
  EXPECT_EQ(delta.trsm_calls, 1u);
  EXPECT_EQ(delta.flops, 2ull * 8 * 10 * 6 + 5ull * 5 * 4);
  EXPECT_GE(delta.seconds, 0.0);
}

TEST(KernelCost, BackendIndependentAndMatchesGemmAccounting) {
  const IoStats io = kernel_cost(default_backend(), 7, 9, 11);
  EXPECT_EQ(io.mults, 7ull * 9 * 11);
  EXPECT_EQ(io.adds, 7ull * 9 * 11);
  for (const Backend b : kAllBackends) {
    const IoStats other = kernel_cost(b, 7, 9, 11);
    EXPECT_EQ(other.mults, io.mults);
    EXPECT_EQ(other.adds, io.adds);
  }
}

}  // namespace
}  // namespace mri::kernels
