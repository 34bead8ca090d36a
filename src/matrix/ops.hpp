// Dense matrix operations over the kernel engine.
//
// Multiplication goes through ONE entry point, matmul(), which dispatches
// into src/linalg/kernels by enum-selected backend (naive | tiled | simd |
// threaded; see kernels/kernel.hpp for what each means).
//
// Different backends may round differently (summation order), so results
// are NOT bitwise identical across backends; each backend is individually
// deterministic and tests compare across backends with tolerances.
#pragma once

#include "linalg/kernels/kernel.hpp"
#include "matrix/matrix.hpp"
#include "sim/io_stats.hpp"

namespace mri {

/// How matmul() runs: which kernel backend executes the flops, whether the
/// second operand is stored transposed (the paper's §6.3 transposed-U
/// layout), and the kThreaded worker count.
struct MatmulOptions {
  kernels::Backend backend = kernels::default_backend();
  /// `b` holds Bᵀ row-major: rows of `b` are columns of the logical B.
  bool transposed_b = false;
  /// kThreaded only: workers per call (0 = hardware_concurrency).
  int threads = 0;
};

/// C = A · B (or A · Bᵀ with opts.transposed_b) through the selected kernel.
Matrix matmul(const Matrix& a, const Matrix& b, const MatmulOptions& opts = {});

/// C op= A · B into an existing matrix of matching shape (kAssign /
/// kAccumulate / kSubtract).
void matmul_into(const Matrix& a, const Matrix& b, Matrix* c,
                 kernels::GemmMode mode = kernels::GemmMode::kAccumulate,
                 const MatmulOptions& opts = {});

/// Returns A + B / A - B.
Matrix add(const Matrix& a, const Matrix& b);
Matrix subtract(const Matrix& a, const Matrix& b);

/// In-place A -= B.
void subtract_in_place(Matrix* a, const Matrix& b);

Matrix transpose(const Matrix& a);

/// max_ij |A_ij|; NaN if any entry is NaN.
double max_abs(const Matrix& a);

/// max_ij |A_ij - B_ij| (shapes must match); NaN if any difference is NaN,
/// so a NaN inverse never reads as residual 0.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// The paper's §7.2 correctness metric: max element of |I - A·A⁻¹|.
double inversion_residual(const Matrix& a, const Matrix& a_inv);

/// Frobenius norm.
double frobenius_norm(const Matrix& a);

}  // namespace mri
