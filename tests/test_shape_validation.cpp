/// Shape-validation and degenerate-input coverage for the public compute
/// API: mismatched B/C dimensions must throw cleanly, and empty (0-row /
/// 0-nnz) and single-row matrices must produce exact results — never UB.

#include <gtest/gtest.h>

#include <vector>

#include "core/gespmm.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using testutil::Csr;
using testutil::DenseMatrix;
using testutil::index_t;
using testutil::value_t;

TEST(ShapeValidation, MismatchedBRowsThrows) {
  const Csr a = testutil::zoo_uniform();  // 200 x 200
  DenseMatrix b(a.cols + 1, 8);
  DenseMatrix c(a.rows, 8);
  EXPECT_THROW(spmm(a, b, c), std::invalid_argument);
}

TEST(ShapeValidation, MismatchedCDimsThrow) {
  const Csr a = testutil::zoo_uniform();
  DenseMatrix b(a.cols, 8);
  DenseMatrix c_wrong_rows(a.rows + 1, 8);
  EXPECT_THROW(spmm(a, b, c_wrong_rows), std::invalid_argument);
  DenseMatrix c_wrong_cols(a.rows, 9);
  EXPECT_THROW(spmm(a, b, c_wrong_cols), std::invalid_argument);
}

TEST(ShapeValidation, SpmmLikeValidatesShapesToo) {
  const Csr a = testutil::zoo_uniform();
  CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  DenseMatrix b(a.cols - 1, 4);
  DenseMatrix c(a.rows, 4);
  EXPECT_THROW(spmm_like(a, b, c, op), std::invalid_argument);
}

TEST(ShapeValidation, ColumnMajorOperandsThrow) {
  // The host fold needs row-major B and C; spmm and spmm_like refuse a
  // column-major operand of the right shape.
  const Csr a = testutil::zoo_uniform();
  CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  const DenseMatrix b(a.cols, 4);
  const DenseMatrix b_col(a.cols, 4, testutil::Layout::ColMajor);
  DenseMatrix c(a.rows, 4);
  DenseMatrix c_col(a.rows, 4, testutil::Layout::ColMajor);
  EXPECT_THROW(spmm(a, b_col, c), std::invalid_argument);
  EXPECT_THROW(spmm(a, b, c_col, ReduceKind::Max), std::invalid_argument);
  EXPECT_THROW(spmm_like(a, b_col, c, op), std::invalid_argument);
  EXPECT_THROW(spmm_like(a, b, c_col, op), std::invalid_argument);
}

TEST(ShapeValidation, ProfileSpmmValidatesShapes) {
  const Csr a = testutil::zoo_uniform();
  DenseMatrix b(a.cols, 4);
  DenseMatrix c(a.rows + 2, 4);
  EXPECT_THROW(profile_spmm(a, b, c), std::invalid_argument);
}

TEST(ShapeValidation, ZeroRowMatrixProducesEmptyOutput) {
  const Csr a(0, 16);
  DenseMatrix b(16, 8);
  kernels::fill_random(b, 7);
  DenseMatrix c(0, 8);
  EXPECT_NO_THROW(spmm(a, b, c));
  EXPECT_EQ(c.rows(), 0);
}

TEST(ShapeValidation, ZeroNnzMatrixYieldsZerosForEveryReduce) {
  const Csr a = testutil::zoo_all_empty();  // 6 x 6, nnz = 0
  DenseMatrix b(a.cols, 8);
  kernels::fill_random(b, 11);
  for (ReduceKind kind : {ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min,
                          ReduceKind::Mean}) {
    DenseMatrix c(a.rows, 8);
    c.fill(42.0f);  // stale output must be overwritten, not kept
    spmm(a, b, c, kind);
    for (index_t i = 0; i < c.rows(); ++i) {
      for (index_t j = 0; j < c.cols(); ++j) {
        EXPECT_EQ(c.at(i, j), 0.0f)
            << kernels::reduce_kind_name(kind) << " at (" << i << "," << j
            << ")";
      }
    }
  }
}

TEST(ShapeValidation, ZeroColumnDenseOperandIsANoop) {
  const Csr a = testutil::zoo_uniform();
  DenseMatrix b(a.cols, 0);
  DenseMatrix c(a.rows, 0);
  EXPECT_NO_THROW(spmm(a, b, c));
}

TEST(ShapeValidation, SingleRowCsrIsExact) {
  // One row: [2, 0, -1, 0.5] — results are hand-computable dot products.
  const std::vector<index_t> r{0, 0, 0};
  const std::vector<index_t> cix{0, 2, 3};
  const std::vector<value_t> v{2.0f, -1.0f, 0.5f};
  const Csr a = sparse::csr_from_triplets(1, 4, r, cix, v);
  DenseMatrix b(4, 2);
  // Column 0: [1, 10, 2, 4]; column 1: [-3, 10, 0, 8].
  b.at(0, 0) = 1.0f;  b.at(0, 1) = -3.0f;
  b.at(1, 0) = 10.0f; b.at(1, 1) = 10.0f;
  b.at(2, 0) = 2.0f;  b.at(2, 1) = 0.0f;
  b.at(3, 0) = 4.0f;  b.at(3, 1) = 8.0f;
  DenseMatrix c(1, 2);
  spmm(a, b, c, ReduceKind::Sum);
  EXPECT_EQ(c.at(0, 0), 2.0f * 1.0f - 1.0f * 2.0f + 0.5f * 4.0f);  // 2
  EXPECT_EQ(c.at(0, 1), 2.0f * -3.0f - 1.0f * 0.0f + 0.5f * 8.0f);  // -2
  spmm(a, b, c, ReduceKind::Max);
  EXPECT_EQ(c.at(0, 0), 2.0f);   // max(2, -2, 2)
  EXPECT_EQ(c.at(0, 1), 4.0f);   // max(-6, 0, 4)
  spmm(a, b, c, ReduceKind::Min);
  EXPECT_EQ(c.at(0, 0), -2.0f);
  EXPECT_EQ(c.at(0, 1), -6.0f);
  spmm(a, b, c, ReduceKind::Mean);
  EXPECT_EQ(c.at(0, 0), 2.0f / 3.0f);
  EXPECT_EQ(c.at(0, 1), -2.0f / 3.0f);
}

TEST(ShapeValidation, EmptyRowsYieldZeroNotInit) {
  // Max/Min init with +/-inf; empty rows must finalize to 0, never leak inf.
  const Csr a = testutil::zoo_empty_rows();  // rows 0, 3, 7 empty
  DenseMatrix b(a.cols, 4);
  kernels::fill_random(b, 13);
  for (ReduceKind kind : {ReduceKind::Max, ReduceKind::Min, ReduceKind::Mean}) {
    DenseMatrix c(a.rows, 4);
    spmm(a, b, c, kind);
    for (index_t i : {0, 3, 7}) {
      for (index_t j = 0; j < 4; ++j) {
        EXPECT_EQ(c.at(i, j), 0.0f) << kernels::reduce_kind_name(kind);
      }
    }
  }
}

}  // namespace
}  // namespace gespmm
