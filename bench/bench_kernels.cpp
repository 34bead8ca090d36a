// google-benchmark microbenchmarks of the kernel engine and substrates:
// dense GEMM per backend (naive/tiled/simd/threaded), the transposed-B
// variant (§6.3), both recursive TRSMs, the single-node LU (Algorithm 1),
// triangular inversion (Eq. 4, also at the final stage's column-subset
// shape) and the DFS data path.
//
// Run with --benchmark_format=json for machine-readable per-backend
// GFLOP/s: items_processed counts n³ multiply-adds, so items_per_second is
// directly comparable across backends (the kernels-smoke CI job asserts the
// selected non-naive backend reaches >= 3x naive on the 1024² GEMM). The
// kernel captures use real time: the threaded backend works on pool
// threads, so main-thread CPU time would overstate its rate many times.
#include <benchmark/benchmark.h>

#include <vector>

#include "dfs/dfs.hpp"
#include "linalg/kernels/kernel.hpp"
#include "linalg/lu.hpp"
#include "linalg/triangular.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

void BM_Gemm(benchmark::State& state, kernels::Backend backend) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 1);
  const Matrix b = random_matrix(n, 2);
  MatmulOptions opts;
  opts.backend = backend;
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b, opts));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK_CAPTURE(BM_Gemm, naive, kernels::Backend::kNaive)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, tiled, kernels::Backend::kTiled)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, simd, kernels::Backend::kSimd)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Gemm, threaded, kernels::Backend::kThreaded)
    ->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GemmTransposedB(benchmark::State& state, kernels::Backend backend) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 1);
  const Matrix bt = random_matrix(n, 2);
  MatmulOptions opts;
  opts.backend = backend;
  opts.transposed_b = true;
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, bt, opts));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK_CAPTURE(BM_GemmTransposedB, naive, kernels::Backend::kNaive)
    ->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmTransposedB, tiled, kernels::Backend::kTiled)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GemmTransposedB, simd, kernels::Backend::kSimd)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrsmLowerLeft(benchmark::State& state, kernels::Backend backend) {
  const Index n = state.range(0);
  Matrix l = random_matrix(n, n, 4, -1, 1);
  for (Index i = 0; i < n; ++i) l(i, i) = 2.0 + static_cast<double>(i % 3);
  const Matrix b = random_matrix(n, n, 5, -1, 1);
  kernels::KernelContext ctx;
  ctx.backend = backend;
  for (auto _ : state) {
    Matrix x = b;
    ctx.trsm_lower_left(false, n, n, l.data().data(), n, x.data().data(), n);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n / 2);
}
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, naive, kernels::Backend::kNaive)
    ->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, tiled, kernels::Backend::kTiled)
    ->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TrsmLowerLeft, simd, kernels::Backend::kSimd)
    ->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The L2' solve of Eq. 6 (X · U = B against stored Uᵀ) at perfbench's
// invert-2048 shape: a 2048-row stripe against an h = 64 diagonal block.
void BM_TrsmUpperRight(benchmark::State& state, kernels::Backend backend) {
  const Index m = state.range(0), h = state.range(1);
  Matrix ut = random_matrix(h, h, 7, -1, 1);
  for (Index i = 0; i < h; ++i) ut(i, i) = 2.0 + static_cast<double>(i % 3);
  const Matrix b = random_matrix(m, h, 8, -1, 1);
  kernels::KernelContext ctx;
  ctx.backend = backend;
  for (auto _ : state) {
    Matrix x = b;
    ctx.trsm_upper_right_from_transpose(m, h, ut.data().data(), h,
                                        x.data().data(), h);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * m * h * h / 2);
}
BENCHMARK_CAPTURE(BM_TrsmUpperRight, naive, kernels::Backend::kNaive)
    ->Args({2048, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_TrsmUpperRight, simd, kernels::Backend::kSimd)
    ->Args({2048, 64})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_LuDecompose(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix a = random_matrix(n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(lu_decompose(a));
  state.SetItemsProcessed(state.iterations() * n * n * n / 3);
}
BENCHMARK(BM_LuDecompose)->Arg(64)->Arg(256)->Arg(512);

void BM_InvertLower(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix l = random_unit_lower_triangular(n, 4);
  for (auto _ : state) benchmark::DoNotOptimize(invert_lower(l));
  state.SetItemsProcessed(state.iterations() * n * n * n / 6);
}
BENCHMARK(BM_InvertLower)->Arg(64)->Arg(128)->Arg(256);

// One §5.4 final-stage mapper: every m0-th column of L⁻¹ (m0 = 8
// interleaved ids, invert-2048's shape) on the process-default backend,
// which the capture overrides for the duration of the run.
void BM_InvertLowerColumns(benchmark::State& state, kernels::Backend backend) {
  const Index n = state.range(0), m0 = state.range(1);
  // Off-diagonals in ±1/n keep L⁻¹ finite at this order (a ±1 unit lower
  // factor's inverse overflows long before n = 2048).
  Matrix l = random_matrix(n, n, 4, -1.0 / static_cast<double>(n),
                           1.0 / static_cast<double>(n));
  for (Index i = 0; i < n; ++i) l(i, i) = 1.0;
  std::vector<Index> ids;
  std::int64_t items = 0;
  for (Index j = 0; j < n; j += m0) {
    ids.push_back(j);
    items += (n - j) * (n - j) / 2;
  }
  const kernels::Backend before = kernels::default_backend();
  kernels::set_default_backend(backend);
  for (auto _ : state) benchmark::DoNotOptimize(invert_lower_columns(l, ids));
  kernels::set_default_backend(before);
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK_CAPTURE(BM_InvertLowerColumns, naive, kernels::Backend::kNaive)
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_InvertLowerColumns, simd, kernels::Backend::kSimd)
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SolveLower(benchmark::State& state) {
  const Index n = state.range(0);
  const Matrix l = random_unit_lower_triangular(n, 5);
  const Matrix b = random_matrix(n, n / 2, 6, -1, 1);
  for (auto _ : state) benchmark::DoNotOptimize(solve_lower(l, b));
  state.SetItemsProcessed(state.iterations() * n * n * (n / 2) / 2);
}
BENCHMARK(BM_SolveLower)->Arg(64)->Arg(128)->Arg(256);

void BM_DfsWriteRead(benchmark::State& state) {
  const std::size_t kb = static_cast<std::size_t>(state.range(0));
  dfs::Dfs fs(4);
  std::vector<double> payload(kb * 128);  // kb KiB of doubles
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/bench/f." + std::to_string(i++);
    fs.write_doubles(path, payload);
    benchmark::DoNotOptimize(fs.read_doubles(path));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size() * 8 * 2));
}
BENCHMARK(BM_DfsWriteRead)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace mri

BENCHMARK_MAIN();
