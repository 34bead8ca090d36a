#include "matrix/text_format.hpp"

#include <gtest/gtest.h>

#include "matrix/generate.hpp"
#include "matrix/ops.hpp"

namespace mri {
namespace {

TEST(TextFormat, RoundTripsExactly) {
  const Matrix m = random_matrix(13, 7, /*seed=*/42, -1e6, 1e6);
  EXPECT_EQ(matrix_from_text(matrix_to_text(m)), m);
}

TEST(TextFormat, RoundTripsExtremeValues) {
  Matrix m(2, 3, {0.0, -0.0, 1e-300, -1e300, 3.141592653589793, 1.0 / 3.0});
  EXPECT_EQ(matrix_from_text(matrix_to_text(m)), m);
}

TEST(TextFormat, ParsesSimpleInput) {
  const Matrix m = matrix_from_text("1 2 3\n4 5 6\n");
  EXPECT_EQ(m, Matrix(2, 3, {1, 2, 3, 4, 5, 6}));
}

TEST(TextFormat, IgnoresBlankLinesAndWhitespace) {
  const Matrix m = matrix_from_text("\n  1\t2  \n\n3 4\r\n\n");
  EXPECT_EQ(m, Matrix(2, 2, {1, 2, 3, 4}));
}

TEST(TextFormat, EmptyTextIsEmptyMatrix) {
  EXPECT_TRUE(matrix_from_text("").empty());
  EXPECT_TRUE(matrix_from_text("\n\n").empty());
}

TEST(TextFormat, RaggedRowsThrow) {
  EXPECT_THROW(matrix_from_text("1 2\n3\n"), InvalidArgument);
}

TEST(TextFormat, GarbageThrows) {
  EXPECT_THROW(matrix_from_text("1 banana\n"), InvalidArgument);
}

TEST(TextFormat, NonFiniteEntriesThrow) {
  EXPECT_THROW(matrix_from_text("1 nan\n3 4\n"), InvalidArgument);
  EXPECT_THROW(matrix_from_text("1 2\n-inf 4\n"), InvalidArgument);
  EXPECT_THROW(matrix_from_text("Infinity\n"), InvalidArgument);
}

TEST(TextFormat, ScientificNotation) {
  const Matrix m = matrix_from_text("1e3 -2.5E-2\n");
  EXPECT_EQ(m(0, 0), 1000.0);
  EXPECT_EQ(m(0, 1), -0.025);
}

}  // namespace
}  // namespace mri
