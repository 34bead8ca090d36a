#include "linalg/kernels/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"
#include "linalg/kernels/detail.hpp"

namespace mri::kernels {

namespace {

// Process-global monotone counters. Incremented once per public entry point
// (relaxed: they are statistics, not synchronization); wall time is kept in
// integer nanoseconds so fetch_add works everywhere.
std::atomic<std::uint64_t> g_gemm_calls{0};
std::atomic<std::uint64_t> g_trsm_calls{0};
std::atomic<std::uint64_t> g_flops{0};
std::atomic<std::uint64_t> g_nanos{0};

class ScopedKernelTimer {
 public:
  ScopedKernelTimer() : start_(std::chrono::steady_clock::now()) {}
  ~ScopedKernelTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    g_nanos.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Counts one public entry point and its modelled flops, factor·m·n·k with
// negative extents clamped to 0.
void count_call(std::atomic<std::uint64_t>* calls, std::uint64_t factor,
                std::int64_t m, std::int64_t n, std::int64_t k) {
  const auto u = [](std::int64_t v) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0));
  };
  calls->fetch_add(1, std::memory_order_relaxed);
  g_flops.fetch_add(factor * u(m) * u(n) * u(k), std::memory_order_relaxed);
}

// True when there is nothing to multiply. A k = 0 product is all zeros, so
// only kAssign has a visible effect.
bool degenerate(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
                double* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return true;
  if (k > 0) return false;
  if (mode == GemmMode::kAssign) {
    for (std::int64_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0);
  }
  return true;
}

// -1 = not chosen yet; otherwise a Backend value. set_default_backend wins
// over the env var, which wins over hardware detection.
std::atomic<int> g_default_backend{-1};

Backend initial_default() {
  if (const char* env = std::getenv("MRI_KERNEL_BACKEND")) {
    Backend b;
    if (parse_backend(env, &b) && backend_available(b)) return b;
  }
  return detail::simd_supported() ? Backend::kSimd : Backend::kTiled;
}

}  // namespace

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kNaive: return "naive";
    case Backend::kTiled: return "tiled";
    case Backend::kSimd: return "simd";
    case Backend::kThreaded: return "threaded";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend* out) {
  MRI_REQUIRE(out != nullptr, "null backend out-param");
  if (name == "naive") {
    *out = Backend::kNaive;
  } else if (name == "tiled") {
    *out = Backend::kTiled;
  } else if (name == "simd") {
    *out = Backend::kSimd;
  } else if (name == "threaded") {
    *out = Backend::kThreaded;
  } else {
    return false;
  }
  return true;
}

bool backend_available(Backend backend) {
  // kSimd silently degrades to kTiled in dispatch, but callers asking
  // "can this CPU actually run it" get the real answer.
  return backend != Backend::kSimd || detail::simd_supported();
}

Backend default_backend() {
  int v = g_default_backend.load(std::memory_order_relaxed);
  if (v < 0) {
    const Backend chosen = initial_default();
    int expected = -1;
    if (g_default_backend.compare_exchange_strong(
            expected, static_cast<int>(chosen), std::memory_order_relaxed)) {
      return chosen;
    }
    v = expected;  // somebody else chose first; use their value
  }
  return static_cast<Backend>(v);
}

void set_default_backend(Backend backend) {
  g_default_backend.store(static_cast<int>(backend),
                          std::memory_order_relaxed);
}

KernelCounters counters_snapshot() {
  KernelCounters c;
  c.gemm_calls = g_gemm_calls.load(std::memory_order_relaxed);
  c.trsm_calls = g_trsm_calls.load(std::memory_order_relaxed);
  c.flops = g_flops.load(std::memory_order_relaxed);
  c.seconds =
      static_cast<double>(g_nanos.load(std::memory_order_relaxed)) * 1e-9;
  return c;
}

void transpose(std::int64_t rows, std::int64_t cols, const double* src,
               std::int64_t lds, double* dst, std::int64_t ldd) {
  constexpr std::int64_t kTile = 8;
  for (std::int64_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::int64_t i1 = std::min(i0 + kTile, rows);
    for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
      const std::int64_t j1 = std::min(j0 + kTile, cols);
      for (std::int64_t i = i0; i < i1; ++i) {
        for (std::int64_t j = j0; j < j1; ++j) {
          dst[j * ldd + i] = src[i * lds + j];
        }
      }
    }
  }
}

IoStats kernel_cost(Backend /*variant*/, std::int64_t r, std::int64_t k,
                    std::int64_t c) {
  // Every current variant executes the classic 2·r·k·c flops; the variant
  // parameter records kernel identity without perturbing the model.
  IoStats io;
  io.mults = static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(k) *
             static_cast<std::uint64_t>(c);
  io.adds = io.mults;
  return io;
}

namespace detail {

Backend resolve(Backend backend) {
  if (backend == Backend::kSimd && !simd_supported()) return Backend::kTiled;
  return backend;
}

void gemm_naive(GemmMode mode, std::int64_t m, std::int64_t n, std::int64_t k,
                const double* a, std::int64_t lda, const double* b,
                std::int64_t ldb, double* c, std::int64_t ldc) {
  // Textbook ijk: the inner k loop strides down a column of B — the §6.3
  // ablation's cache-hostile baseline, kept exactly this slow on purpose.
  for (std::int64_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::int64_t p = 0; p < k; ++p) sum += ai[p] * b[p * ldb + j];
      switch (mode) {
        case GemmMode::kAssign: ci[j] = sum; break;
        case GemmMode::kAccumulate: ci[j] += sum; break;
        case GemmMode::kSubtract: ci[j] -= sum; break;
      }
    }
  }
}

void gemm_bt_naive(GemmMode mode, std::int64_t m, std::int64_t n,
                   std::int64_t k, const double* a, std::int64_t lda,
                   const double* bt, std::int64_t ldbt, double* c,
                   std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      const double* btj = bt + j * ldbt;
      double sum = 0.0;
      for (std::int64_t p = 0; p < k; ++p) sum += ai[p] * btj[p];
      switch (mode) {
        case GemmMode::kAssign: ci[j] = sum; break;
        case GemmMode::kAccumulate: ci[j] += sum; break;
        case GemmMode::kSubtract: ci[j] -= sum; break;
      }
    }
  }
}

void dispatch_gemm(Backend backend, int threads, GemmMode mode, std::int64_t m,
                   std::int64_t n, std::int64_t k, const double* a,
                   std::int64_t lda, const double* b, std::int64_t ldb,
                   double* c, std::int64_t ldc) {
  if (degenerate(mode, m, n, k, c, ldc)) return;
  switch (resolve(backend)) {
    case Backend::kNaive:
      gemm_naive(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kTiled:
      gemm_tiled(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kSimd:
      gemm_simd(mode, m, n, k, a, lda, b, ldb, c, ldc);
      break;
    case Backend::kThreaded:
      gemm_threaded(resolve(Backend::kSimd), threads, mode, m, n, k, a, lda, b,
                    ldb, c, ldc);
      break;
  }
}

void dispatch_gemm_bt(Backend backend, int threads, GemmMode mode,
                      std::int64_t m, std::int64_t n, std::int64_t k,
                      const double* a, std::int64_t lda, const double* bt,
                      std::int64_t ldbt, double* c, std::int64_t ldc) {
  if (degenerate(mode, m, n, k, c, ldc)) return;
  switch (resolve(backend)) {
    case Backend::kNaive:
      gemm_bt_naive(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kTiled:
      gemm_bt_tiled(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kSimd:
      gemm_bt_simd(mode, m, n, k, a, lda, bt, ldbt, c, ldc);
      break;
    case Backend::kThreaded:
      gemm_bt_threaded(resolve(Backend::kSimd), threads, mode, m, n, k, a, lda,
                       bt, ldbt, c, ldc);
      break;
  }
}

}  // namespace detail

namespace {

// Diagonal blocks of at most this order are solved by substitution; larger
// ones halve, so all but a leaf/order share of a TRSM's flops run as GEMM.
constexpr std::int64_t kTrsmLeaf = 16;

// Order of the first half when a diagonal block of order m > kTrsmLeaf
// splits: a whole number of 8-wide microkernel tiles, the rest second.
std::int64_t split_order(std::int64_t m) { return (m / 2 + 7) / 8 * 8; }

// Unblocked forward substitution: row i subtracts every solved row above it
// (unit-stride axpy over the n right-hand sides), then scales.
void lower_left_substitute(bool unit_diag, std::int64_t m, std::int64_t n,
                           const double* l, std::int64_t ldl, double* b,
                           std::int64_t ldb) {
  for (std::int64_t i = 0; i < m; ++i) {
    double* bi = b + i * ldb;
    const double* li = l + i * ldl;
    for (std::int64_t p = 0; p < i; ++p) {
      const double lip = li[p];
      if (lip == 0.0) continue;  // triangular operands are half zeros
      const double* bp = b + p * ldb;
      for (std::int64_t j = 0; j < n; ++j) bi[j] -= lip * bp[j];
    }
    if (!unit_diag) {
      const double inv_d = 1.0 / li[i];
      for (std::int64_t j = 0; j < n; ++j) bi[j] *= inv_d;
    }
  }
}

// [L11 0; L21 L22] · [X1; X2] = [B1; B2]: solve X1, B2 -= L21·X1, solve X2.
// Naive keeps the unblocked substitution (the §6.3 ablation baseline).
void lower_left_recursive(Backend backend, int threads, bool unit_diag,
                          std::int64_t m, std::int64_t n, const double* l,
                          std::int64_t ldl, double* b, std::int64_t ldb) {
  if (backend == Backend::kNaive || m <= kTrsmLeaf) {
    lower_left_substitute(unit_diag, m, n, l, ldl, b, ldb);
    return;
  }
  const std::int64_t m1 = split_order(m);
  lower_left_recursive(backend, threads, unit_diag, m1, n, l, ldl, b, ldb);
  detail::dispatch_gemm(backend, threads, GemmMode::kSubtract, m - m1, n, m1,
                        l + m1 * ldl, ldl, b, ldb, b + m1 * ldb, ldb);
  lower_left_recursive(backend, threads, unit_diag, m - m1, n,
                       l + m1 * ldl + m1, ldl, b + m1 * ldb, ldb);
}

// X · U = B is Uᵀ · Xᵀ = Bᵀ: a left solve whose lower factor is the stored
// Uᵀ itself, so the recursion's GEMMs stream rows of Uᵀ (§6.3). Bᵀ is
// built kChunk rows of B at a time, in a buffer whose leading dimension is
// padded off the power of two (4 KiB store-to-load aliasing between rows).
void upper_right_transposed(Backend backend, int threads, std::int64_t m,
                            std::int64_t n, const double* ut,
                            std::int64_t ldut, double* b, std::int64_t ldb) {
  constexpr std::int64_t kChunk = 128;
  const std::int64_t ldt = std::min(m, kChunk) + 8;
  std::vector<double> t(static_cast<std::size_t>(n * ldt));
  for (std::int64_t r0 = 0; r0 < m; r0 += kChunk) {
    const std::int64_t rows = std::min(kChunk, m - r0);
    transpose(rows, n, b + r0 * ldb, ldb, t.data(), ldt);
    lower_left_recursive(backend, threads, /*unit_diag=*/false, n, rows, ut,
                         ldut, t.data(), ldt);
    transpose(n, rows, t.data(), ldt, b + r0 * ldb, ldb);
  }
}

}  // namespace

void KernelContext::gemm(GemmMode mode, std::int64_t m, std::int64_t n,
                         std::int64_t k, const double* a, std::int64_t lda,
                         const double* b, std::int64_t ldb, double* c,
                         std::int64_t ldc) const {
  ScopedKernelTimer timer;
  count_call(&g_gemm_calls, 2, m, n, k);
  detail::dispatch_gemm(backend, threads, mode, m, n, k, a, lda, b, ldb, c,
                        ldc);
}

void KernelContext::gemm_bt(GemmMode mode, std::int64_t m, std::int64_t n,
                            std::int64_t k, const double* a, std::int64_t lda,
                            const double* bt, std::int64_t ldbt, double* c,
                            std::int64_t ldc) const {
  ScopedKernelTimer timer;
  count_call(&g_gemm_calls, 2, m, n, k);
  detail::dispatch_gemm_bt(backend, threads, mode, m, n, k, a, lda, bt, ldbt,
                           c, ldc);
}

void KernelContext::trsm_lower_left(bool unit_diag, std::int64_t m,
                                    std::int64_t n, const double* l,
                                    std::int64_t ldl, double* b,
                                    std::int64_t ldb) const {
  if (m <= 0 || n <= 0) return;
  ScopedKernelTimer timer;
  count_call(&g_trsm_calls, 1, m, m, n);
  lower_left_recursive(detail::resolve(backend), threads, unit_diag, m, n, l,
                       ldl, b, ldb);
}

void KernelContext::trsm_upper_right_from_transpose(std::int64_t m,
                                                    std::int64_t n,
                                                    const double* ut,
                                                    std::int64_t ldut,
                                                    double* b,
                                                    std::int64_t ldb) const {
  if (m <= 0 || n <= 0) return;
  ScopedKernelTimer timer;
  count_call(&g_trsm_calls, 1, n, n, m);
  upper_right_transposed(detail::resolve(backend), threads, m, n, ut, ldut, b,
                         ldb);
}

}  // namespace mri::kernels
