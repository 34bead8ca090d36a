// Self-test of the benchmark's correctness oracle and order statistics.
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "check.hpp"
#include "common/thread_pool.hpp"
#include "core/inverter.hpp"
#include "matrix/generate.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using perfbench::check_inverse;
  const mri::Index n = 96;
  const mri::Matrix a = mri::random_matrix(n, 7);

  // A real inverse from the library's pipeline passes.
  mri::Cluster cluster(4, mri::CostModel::ec2_medium());
  mri::dfs::Dfs fs(4);
  mri::ThreadPool pool(2);
  mri::core::MapReduceInverter inverter(&cluster, &fs, &pool);
  mri::core::InversionOptions opts;
  opts.nb = 24;
  const mri::Matrix x = inverter.invert(a, opts).inverse;
  const perfbench::InverseCheck good = check_inverse(a, x);
  expect(good.ok, "a correct inverse passes");
  expect(good.max_abs_residual < 1e-10, "its residual is near epsilon");

  mri::Matrix nan_x = x;
  nan_x(3, 5) = std::numeric_limits<double>::quiet_NaN();
  const perfbench::InverseCheck nan_check = check_inverse(a, nan_x);
  expect(!nan_check.ok, "a NaN inverse fails");
  expect(!nan_check.finite, "a NaN inverse is flagged non-finite");
  expect(std::isnan(nan_check.max_abs_residual),
         "a NaN inverse's residual is NaN, not 0");

  mri::Matrix all_nan(n, n);
  for (double& v : all_nan.data()) v = std::numeric_limits<double>::quiet_NaN();
  expect(!check_inverse(a, all_nan).ok, "an all-NaN inverse fails");

  mri::Matrix inf_x = x;
  inf_x(0, 0) = std::numeric_limits<double>::infinity();
  expect(!check_inverse(a, inf_x).ok, "an infinite inverse fails");

  mri::Matrix wrong = x;
  wrong(10, 20) += 1e-6;
  expect(!check_inverse(a, wrong).ok, "a perturbed inverse fails");

  expect(!check_inverse(a, mri::Matrix::identity(n)).ok,
         "the identity is not the inverse");
  expect(!check_inverse(a, mri::Matrix(n + 1, n + 1)).ok,
         "a wrongly shaped inverse fails");

  expect(perfbench::nan_max(1.0, std::nan("")) != perfbench::nan_max(1.0, 2.0),
         "nan_max keeps NaN");
  expect(std::isnan(perfbench::nan_max(std::nan(""), 5.0)),
         "nan_max never drops a NaN once seen");

  expect(perfbench::matrix_hash(x) == perfbench::matrix_hash(x),
         "the output hash is stable");
  expect(perfbench::matrix_hash(x) != perfbench::matrix_hash(wrong),
         "the output hash sees a one-entry change");

  const std::vector<double> v = {5, 1, 4, 2, 3};
  expect(perfbench::median(v) == 3.0, "median of an odd count");
  expect(perfbench::median({1, 2, 3, 4}) == 2.5, "median of an even count");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(perfbench::percentile(hundred, 0.95) == 95.0,
         "nearest-rank p95 of 1..100");
  expect(perfbench::count_above(hundred, 95.0) == 5,
         "samples beyond p95 of 1..100");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
