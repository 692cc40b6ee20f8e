/// Golden-reference coverage for gespmm::spmm_like custom
/// init/reduce/finalize/combine operators (paper Section IV-A): max-pool,
/// mean aggregation and a masked combine, each checked against a sequential
/// scalar reference that applies the same ops in the same in-row order.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/gespmm.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using testutil::Csr;
using testutil::DenseMatrix;
using testutil::index_t;
using testutil::value_t;

/// Sequential scalar reference applying the exact same CustomReduceOp
/// callbacks. spmm_like parallelizes over rows but keeps the in-row nnz
/// order, so float results must match this loop bit-for-bit.
DenseMatrix scalar_reference(const Csr& a, const DenseMatrix& b,
                             const CustomReduceOp& op) {
  DenseMatrix c(a.rows, b.cols());
  auto combine = op.combine ? op.combine
                            : [](value_t x, value_t y) { return x * y; };
  auto finalize = op.finalize ? op.finalize
                              : [](value_t acc, index_t) { return acc; };
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
    const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t j = 0; j < b.cols(); ++j) {
      value_t acc = op.init();
      for (index_t p = lo; p < hi; ++p) {
        const index_t k = a.colind[static_cast<std::size_t>(p)];
        acc = op.reduce(acc, combine(a.val[static_cast<std::size_t>(p)],
                                     b.at(k, j)));
      }
      c.at(i, j) = finalize(acc, hi - lo);
    }
  }
  return c;
}

void expect_exact_match(const Csr& a, const CustomReduceOp& op, index_t n,
                        const std::string& what) {
  DenseMatrix b(a.cols, n);
  kernels::fill_random(b, 0xFEEDu + static_cast<std::uint64_t>(n));
  DenseMatrix c(a.rows, n);
  spmm_like(a, b, c, op);
  const DenseMatrix ref = scalar_reference(a, b, op);
  EXPECT_TRUE(testutil::bitwise_equal(c, ref))
      << what << " deviates from the sequential scalar reference for "
      << a.rows << "x" << a.cols << " nnz=" << a.nnz();
}

CustomReduceOp max_pool_op() {
  CustomReduceOp op;
  op.init = [] { return -std::numeric_limits<value_t>::infinity(); };
  op.reduce = [](value_t acc, value_t x) { return acc > x ? acc : x; };
  op.finalize = [](value_t acc, index_t row_nnz) {
    return row_nnz == 0 ? 0.0f : acc;
  };
  return op;
}

CustomReduceOp mean_op() {
  CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  op.finalize = [](value_t acc, index_t row_nnz) {
    return row_nnz == 0 ? 0.0f : acc / static_cast<value_t>(row_nnz);
  };
  return op;
}

/// Masked combine: edges below a weight threshold contribute nothing;
/// combine ignores the dense operand's sign via fabs.
CustomReduceOp masked_combine_op() {
  CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  op.combine = [](value_t a, value_t b) {
    return a >= 0.5f ? a * std::fabs(b) : 0.0f;
  };
  return op;
}

TEST(SpmmLike, MaxPoolMatchesScalarReference) {
  for (const auto& [name, a] : testutil::zoo_cases()) {
    expect_exact_match(a, max_pool_op(), 17, "max-pool on " + name);
    expect_exact_match(a, max_pool_op(), 64, "max-pool on " + name);
  }
}

TEST(SpmmLike, MeanMatchesScalarReference) {
  for (const auto& [name, a] : testutil::zoo_cases()) {
    expect_exact_match(a, mean_op(), 17, "mean on " + name);
    expect_exact_match(a, mean_op(), 64, "mean on " + name);
  }
}

TEST(SpmmLike, MaskedCombineMatchesScalarReference) {
  for (const auto& [name, a] : testutil::zoo_cases()) {
    expect_exact_match(a, masked_combine_op(), 17, "masked combine on " + name);
    expect_exact_match(a, masked_combine_op(), 64, "masked combine on " + name);
  }
}

TEST(SpmmLike, CustomMaxAgreesWithBuiltinMaxReduce) {
  const Csr a = testutil::zoo_empty_rows();
  DenseMatrix b(a.cols, 9);
  kernels::fill_random(b, 21);
  DenseMatrix via_builtin(a.rows, 9);
  spmm(a, b, via_builtin, ReduceKind::Max);
  DenseMatrix via_custom(a.rows, 9);
  spmm_like(a, b, via_custom, max_pool_op());
  EXPECT_TRUE(testutil::bitwise_equal(via_builtin, via_custom));
}

TEST(SpmmLike, CustomMeanAgreesWithBuiltinMeanReduce) {
  const Csr a = testutil::zoo_uniform();
  DenseMatrix b(a.cols, 5);
  kernels::fill_random(b, 22);
  DenseMatrix via_builtin(a.rows, 5);
  spmm(a, b, via_builtin, ReduceKind::Mean);
  DenseMatrix via_custom(a.rows, 5);
  spmm_like(a, b, via_custom, mean_op());
  EXPECT_TRUE(testutil::bitwise_equal(via_builtin, via_custom));
}

TEST(SpmmLike, DefaultCombineAndFinalizeAreMultiplyAndIdentity) {
  const Csr a = testutil::zoo_uniform();
  DenseMatrix b(a.cols, 8);
  kernels::fill_random(b, 23);
  CustomReduceOp op;  // only the required members
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  DenseMatrix via_custom(a.rows, 8);
  spmm_like(a, b, via_custom, op);
  DenseMatrix via_sum(a.rows, 8);
  spmm(a, b, via_sum, ReduceKind::Sum);
  EXPECT_TRUE(testutil::bitwise_equal(via_custom, via_sum));
}

TEST(SpmmLike, MissingRequiredOpsThrow) {
  const Csr a = testutil::zoo_single_entry();
  DenseMatrix b(a.cols, 2);
  DenseMatrix c(a.rows, 2);
  CustomReduceOp no_init;
  no_init.reduce = [](value_t acc, value_t x) { return acc + x; };
  EXPECT_THROW(spmm_like(a, b, c, no_init), std::invalid_argument);
  CustomReduceOp no_reduce;
  no_reduce.init = [] { return 0.0f; };
  EXPECT_THROW(spmm_like(a, b, c, no_reduce), std::invalid_argument);
}

}  // namespace
}  // namespace gespmm
