/// Host SpMM: spmm_host_parallel against the sequential
/// spmm_host_reference, byte for byte. The parallel kernel folds a tile of
/// output columns per walk of a sparse row, so these sweeps pin each output
/// element's fold order: every reduction, widths on both sides of the
/// column tile and of the B-row prefetch, row chunks with empty and long
/// rows at their edges, and operands holding NaN, infinities and signed
/// zeros. Also pins the kernel's shape and layout checks, computing into a
/// row range of a larger C, and the comparison helpers the serving suites'
/// bitwise assertions rest on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "test_util.hpp"

namespace gespmm {
namespace {

using testutil::bitwise_equal;
using testutil::Csr;
using testutil::DenseMatrix;
using testutil::index_t;
using testutil::Layout;
using testutil::ReduceKind;
using testutil::value_t;

constexpr ReduceKind kKinds[] = {ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min,
                                 ReduceKind::Mean};

/// spmm_host_parallel into a NaN-filled C, so an element the kernel never
/// writes cannot pass, compared with the reference.
::testing::AssertionResult parallel_matches_reference(const Csr& a, const DenseMatrix& b,
                                                      ReduceKind kind) {
  DenseMatrix got(a.rows, b.cols());
  got.fill(std::numeric_limits<value_t>::quiet_NaN());
  kernels::spmm_host_parallel(a, b, got, kind);
  return bitwise_equal(got, testutil::reference_spmm(a, b, kind));
}

/// 200 x 150 with the kernel's 64-row chunk edges in view: rows 60-67
/// empty (straddling the first edge), row 127 holding 40 nonzeros (more
/// than the 16-nonzero prefetch distance) as the last row of its chunk,
/// and rows 128-191 an entirely empty chunk. The prefetch cursor starts,
/// stops and clamps at each edge.
Csr chunk_edges() {
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  for (index_t i = 0; i < 200; ++i) {
    index_t k = i % 5 + 1;
    if ((i >= 60 && i < 68) || (i >= 128 && i < 192)) k = 0;
    if (i == 127) k = 40;
    for (index_t t = 0; t < k; ++t) {
      r.push_back(i);
      c.push_back((i * 13 + t * 7) % 150);
      v.push_back(0.25f + 0.01f * static_cast<value_t>((i + t) % 17));
    }
  }
  return sparse::csr_from_triplets(200, 150, r, c, v);
}

TEST(SpmmHost, ParallelMatchesReferenceBitwise) {
  // The zoo plus a larger power-law, a rectangular uniform matrix and one
  // built around the row-chunk edges.
  std::vector<testutil::ZooCase> cases = testutil::zoo_cases();
  cases.push_back({"rmat", sparse::rmat(10, 16.0, 0.57, 0.19, 0.19, 4)});
  cases.push_back({"uniform_rect", sparse::uniform_random(300, 700, 6000, 5)});
  cases.push_back({"chunk_edges", chunk_edges()});
  // Widths on both sides of the 8-column tile (tail only, whole tiles,
  // and tiles plus a tail) and of the prefetch, which is on above 16.
  const index_t widths[] = {1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257};
  for (const auto& [name, a] : cases) {
    for (const index_t n : widths) {
      DenseMatrix b(a.cols, n);
      kernels::fill_random(b, 100 + static_cast<std::uint64_t>(n));
      for (const ReduceKind kind : kKinds) {
        EXPECT_TRUE(parallel_matches_reference(a, b, kind))
            << name << " n=" << n << " " << kernels::reduce_kind_name(kind);
      }
    }
  }
}

TEST(SpmmHost, SpecialValuesFoldInReferenceOrder) {
  // Which NaN or signed zero Max and Min keep depends on each element's
  // fold order, and so does where Sum meets 0 * inf or inf - inf. Sum and
  // Mean only see the NaNs arithmetic makes (one bit pattern): IEEE leaves
  // open which payload NaN + NaN returns, and a compiler may emit an
  // addition in either operand order.
  const value_t inf = std::numeric_limits<value_t>::infinity();
  const value_t specials[] = {-0.0f, 0.0f, inf, -inf, std::numeric_limits<value_t>::quiet_NaN()};
  Csr a = testutil::zoo_skewed();
  for (std::size_t p = 0; p < a.val.size(); p += 5) a.val[p] = p % 2 == 0 ? 0.0f : -0.0f;
  for (const index_t n : {5, 8, 19}) {
    for (const ReduceKind kind : kKinds) {
      const bool selects = kind == ReduceKind::Max || kind == ReduceKind::Min;
      DenseMatrix b(a.cols, n);
      kernels::fill_random(b, 300 + static_cast<std::uint64_t>(n));
      auto host = b.device().host();
      for (std::size_t k = 0; k < host.size(); k += 7) {
        host[k] = specials[(k / 7) % (selects ? 5 : 4)];
      }
      EXPECT_TRUE(parallel_matches_reference(a, b, kind))
          << "n=" << n << " " << kernels::reduce_kind_name(kind);
    }
  }
}

TEST(SpmmHost, RowBeginComputesIntoItsRowsOnly) {
  // A lands in C's rows [row_begin, row_begin + A.rows): those match the
  // reference and every other row keeps its NaN fill.
  const Csr a = chunk_edges();
  const index_t row_begin = 7;
  for (const index_t n : {9, 33}) {
    DenseMatrix b(a.cols, n);
    kernels::fill_random(b, 400 + static_cast<std::uint64_t>(n));
    const DenseMatrix want = testutil::reference_spmm(a, b, ReduceKind::Max);
    DenseMatrix got(a.rows + 12, n);
    got.fill(std::numeric_limits<value_t>::quiet_NaN());
    kernels::spmm_host_parallel(a, b, got, ReduceKind::Max, row_begin);
    DenseMatrix inside(a.rows, n);
    bool outside_untouched = true;
    for (index_t i = 0; i < got.rows(); ++i) {
      const bool in = i >= row_begin && i < row_begin + a.rows;
      for (index_t j = 0; j < n; ++j) {
        if (in) {
          inside.at(i - row_begin, j) = got.at(i, j);
        } else {
          outside_untouched = outside_untouched && std::isnan(got.at(i, j));
        }
      }
    }
    EXPECT_TRUE(bitwise_equal(inside, want)) << "n=" << n;
    EXPECT_TRUE(outside_untouched) << "n=" << n;
  }
}

TEST(SpmmHost, RejectsMisshapedOperands) {
  // Each check guards an out-of-bounds access: the kernel gathers B rows by
  // A's column index and uses B's width as C's row stride.
  const Csr a = testutil::zoo_uniform();  // 200 x 200
  const DenseMatrix b(a.cols, 8);
  DenseMatrix c(a.rows, 8);

  const DenseMatrix b_short(a.cols - 1, 8);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b_short, c), std::invalid_argument);
  const DenseMatrix b_tall(a.cols + 1, 8);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b_tall, c), std::invalid_argument);

  DenseMatrix c_narrow(a.rows, 7);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_narrow), std::invalid_argument);
  DenseMatrix c_wide(a.rows, 9);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_wide), std::invalid_argument);

  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c, ReduceKind::Sum, -1),
               std::invalid_argument);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c, ReduceKind::Sum, 1),
               std::invalid_argument);
  DenseMatrix c_short(a.rows - 1, 8);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_short), std::invalid_argument);

  // The last row range that fits.
  DenseMatrix c_tall(a.rows + 3, 8);
  EXPECT_NO_THROW(kernels::spmm_host_parallel(a, b, c_tall, ReduceKind::Sum, 3));

  // The user-defined overload runs the same checks.
  kernels::CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  EXPECT_THROW(kernels::spmm_host_parallel(a, b_short, c, op), std::invalid_argument);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_narrow, op), std::invalid_argument);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_short, op), std::invalid_argument);
}

TEST(SpmmHost, RejectsColumnMajorOperands) {
  // The fold addresses B and C as row-major storage; a column-major
  // operand of the right shape would compute garbage, so both overloads
  // refuse it.
  const Csr a = testutil::zoo_uniform();
  const DenseMatrix b(a.cols, 8);
  const DenseMatrix b_col(a.cols, 8, Layout::ColMajor);
  DenseMatrix c(a.rows, 8);
  DenseMatrix c_col(a.rows, 8, Layout::ColMajor);
  kernels::CustomReduceOp op;
  op.init = [] { return 0.0f; };
  op.reduce = [](value_t acc, value_t x) { return acc + x; };
  for (const ReduceKind kind : kKinds) {
    EXPECT_THROW(kernels::spmm_host_parallel(a, b_col, c, kind), std::invalid_argument);
    EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_col, kind), std::invalid_argument);
    EXPECT_THROW(kernels::spmm_host_parallel(a, b_col, c_col, kind), std::invalid_argument);
  }
  EXPECT_THROW(kernels::spmm_host_parallel(a, b_col, c, op), std::invalid_argument);
  EXPECT_THROW(kernels::spmm_host_parallel(a, b, c_col, op), std::invalid_argument);
  EXPECT_NO_THROW(kernels::spmm_host_parallel(a, b, c, op));
}

TEST(BitwiseEqual, CatchesWhatMaxAbsDiffMisses) {
  DenseMatrix x(2, 3);
  DenseMatrix y(2, 3, Layout::ColMajor);  // compared by element, not by storage
  EXPECT_TRUE(bitwise_equal(x, y));

  y.at(1, 2) = -0.0f;
  EXPECT_EQ(x.max_abs_diff(y), 0.0);
  EXPECT_FALSE(bitwise_equal(x, y));

  y.at(1, 2) = std::numeric_limits<value_t>::quiet_NaN();
  EXPECT_EQ(x.max_abs_diff(y), 0.0);
  EXPECT_FALSE(bitwise_equal(x, y));

  const DenseMatrix narrower(2, 2);
  EXPECT_THROW(x.max_abs_diff(narrower), std::invalid_argument);
  EXPECT_FALSE(bitwise_equal(x, narrower));
  EXPECT_FALSE(bitwise_equal(DenseMatrix(3, 2), DenseMatrix(2, 3)));
}

}  // namespace
}  // namespace gespmm
