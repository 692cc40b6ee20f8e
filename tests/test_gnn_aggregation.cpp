/// Aggregation layer: functional equivalence with the kernel host
/// reference for every reduction (directly and through the autograd
/// engine), max-backward routing including ties, the feature-shape check,
/// and the device-time orderings the end-to-end results rest on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/gespmm.hpp"
#include "gnn/aggregation.hpp"
#include "gnn/autograd.hpp"
#include "gnn/train.hpp"
#include "kernels/spmm_host.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace gespmm::gnn {
namespace {

using kernels::ReduceKind;

Tensor dense_from(const kernels::DenseMatrix& m) {
  Tensor t(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) t.at(i, j) = m.at(i, j);
  }
  return t;
}

class AggregationEquivalence : public ::testing::TestWithParam<ReduceKind> {};

TEST_P(AggregationEquivalence, MatchesKernelHostReference) {
  const auto kind = GetParam();
  const sparse::Csr a = sparse::rmat(8, 6.0, 0.5, 0.2, 0.2, 777);
  kernels::DenseMatrix b(a.cols, 24);
  kernels::fill_random(b, 13);
  kernels::DenseMatrix ref(a.rows, 24);
  kernels::spmm_host_reference(a, b, ref, kind);

  const Tensor res = aggregate_forward(a, dense_from(b), kind);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < 24; ++j) {
      EXPECT_NEAR(res.at(i, j), ref.at(i, j), 1e-4)
          << kernels::reduce_kind_name(kind) << " at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllReductions, AggregationEquivalence,
                         ::testing::Values(ReduceKind::Sum, ReduceKind::Max,
                                           ReduceKind::Min, ReduceKind::Mean),
                         [](const auto& info) {
                           return std::string(kernels::reduce_kind_name(info.param));
                         });

TEST(AggregationBackward, SumEqualsTransposedForward) {
  const sparse::Csr a = sparse::uniform_random(40, 40, 240, 778);
  const sparse::Csr at = sparse::transpose(a);
  Tensor dy(40, 8);
  for (index_t i = 0; i < 40; ++i) {
    for (index_t j = 0; j < 8; ++j) dy.at(i, j) = 0.01f * static_cast<float>(i + j);
  }
  const Tensor dx = aggregate_backward_sum(at, dy);
  // dX[k][j] = sum_i A[i][k] dY[i][j], checked element-wise.
  for (index_t k = 0; k < 40; ++k) {
    for (index_t j = 0; j < 8; ++j) {
      float expect = 0.0f;
      for (index_t i = 0; i < a.rows; ++i) {
        for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
             p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
          if (a.colind[static_cast<std::size_t>(p)] == k) {
            expect += a.val[static_cast<std::size_t>(p)] * dy.at(i, j);
          }
        }
      }
      EXPECT_NEAR(dx.at(k, j), expect, 1e-4);
    }
  }
}

TEST(AggregationBackward, MaxRoutesGradientToWinnerOnly) {
  // Row 0 aggregates columns 1 (val 2) and 2 (val 1). With x[1]=3, x[2]=10:
  // winner is column 2 (1*10 > 2*3); its gradient gets dy * val.
  std::vector<sparse::index_t> r{0, 0}, c{1, 2};
  std::vector<sparse::value_t> v{2.0f, 1.0f};
  const sparse::Csr a = sparse::csr_from_triplets(1, 3, r, c, v);
  Tensor x(3, 1);
  x.at(1, 0) = 3.0f;
  x.at(2, 0) = 10.0f;
  const Tensor fwd = aggregate_forward(a, x, ReduceKind::Max);
  EXPECT_FLOAT_EQ(fwd.at(0, 0), 10.0f);
  Tensor dy(1, 1);
  dy.at(0, 0) = 5.0f;
  const Tensor dx = aggregate_backward_select(a, x, fwd, dy);
  EXPECT_FLOAT_EQ(dx.at(1, 0), 0.0f);   // loser gets nothing
  EXPECT_FLOAT_EQ(dx.at(2, 0), 5.0f);   // winner gets val * dy = 1 * 5
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
}

TEST(AggregationBackward, EmptyRowsProduceNoGradient) {
  const sparse::Csr a(4, 4);  // all empty
  Tensor x(4, 2);
  const Tensor fwd = aggregate_forward(a, x, ReduceKind::Max);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(fwd.at(i, j), 0.0f);
  }
  Tensor dy(4, 2, 1.0f);
  const Tensor dx = aggregate_backward_select(a, x, fwd, dy);
  for (auto g : dx.flat()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(AggregationForward, RejectsFeaturesThatDoNotMatchACols) {
  // The host fold gathers x rows by A's column index without bounds
  // checks, so a short x would be read past its end.
  const sparse::Csr a = sparse::uniform_random(30, 40, 200, 782);
  for (const ReduceKind kind : {ReduceKind::Sum, ReduceKind::Max}) {
    EXPECT_THROW(aggregate_forward(a, Tensor(39, 4), kind), std::invalid_argument);
    EXPECT_THROW(aggregate_forward(a, Tensor(41, 4), kind), std::invalid_argument);
    EXPECT_THROW(aggregate_forward(a, Tensor(30, 4), kind), std::invalid_argument);
    EXPECT_NO_THROW(aggregate_forward(a, Tensor(40, 4), kind));
  }
}

/// Engine::aggregate's forward value under `kind` for features `b`. PyG's
/// analytic cost model prices the op, so no simulation runs; the values do
/// not depend on the backend.
kernels::DenseMatrix engine_aggregate(const GnnGraph& g, const kernels::DenseMatrix& b,
                                      ReduceKind kind) {
  Engine eng(gpusim::gtx1080ti());
  const VarPtr out =
      eng.aggregate(g, eng.input(dense_from(b)), AggregatorBackend::PyGMessagePassing, kind);
  kernels::DenseMatrix got(out->value.rows(), out->value.cols());
  for (index_t i = 0; i < got.rows(); ++i) {
    for (index_t j = 0; j < got.cols(); ++j) got.at(i, j) = out->value.at(i, j);
  }
  return got;
}

TEST(EngineAggregate, ForwardMatchesHostReferenceBitwise) {
  // The zoo plus a larger power-law and a rectangular uniform matrix, at
  // widths on both sides of the host kernel's 8-column tile and of its
  // B-row prefetch (on above 16 columns).
  std::vector<testutil::ZooCase> cases = testutil::zoo_cases();
  cases.push_back({"rmat", sparse::rmat(10, 16.0, 0.57, 0.19, 0.19, 4)});
  cases.push_back({"uniform_rect", sparse::uniform_random(300, 700, 6000, 5)});
  for (const auto& [name, a] : cases) {
    const GnnGraph g(a, gpusim::gtx1080ti());
    for (const index_t n : {1, 7, 8, 9, 17, 64, 65}) {
      kernels::DenseMatrix b(a.cols, n);
      kernels::fill_random(b, 500 + static_cast<std::uint64_t>(n));
      for (const ReduceKind kind :
           {ReduceKind::Sum, ReduceKind::Max, ReduceKind::Min, ReduceKind::Mean}) {
        EXPECT_TRUE(testutil::bitwise_equal(engine_aggregate(g, b, kind),
                                            testutil::reference_spmm(a, b, kind)))
            << name << " n=" << n << " " << kernels::reduce_kind_name(kind);
      }
    }
  }
}

TEST(EngineAggregate, MaxTieSendsTheGradientToTheFirstNonzero) {
  // Row 0 holds columns 0 (val 2) and 1 (val 1). With x = {3, 6} both
  // products are 6: the whole gradient goes to column 0, the first
  // nonzero in CSR order.
  std::vector<sparse::index_t> r{0, 0}, c{0, 1};
  std::vector<sparse::value_t> v{2.0f, 1.0f};
  const GnnGraph g(sparse::csr_from_triplets(1, 2, r, c, v), gpusim::gtx1080ti());
  Engine eng(gpusim::gtx1080ti());
  Tensor x0(2, 1);
  x0.at(0, 0) = 3.0f;
  x0.at(1, 0) = 6.0f;
  const VarPtr x = eng.param(x0);
  const VarPtr out = eng.aggregate(g, x, AggregatorBackend::PyGMessagePassing, ReduceKind::Max);
  EXPECT_EQ(out->value.at(0, 0), 6.0f);
  out->grad.at(0, 0) = 5.0f;
  eng.backward();
  EXPECT_EQ(x->grad.at(0, 0), 10.0f);  // val * dy = 2 * 5
  EXPECT_EQ(x->grad.at(1, 0), 0.0f);
}

TEST(AggregationTiming, MonotoneInWidth) {
  GnnGraph g(sparse::uniform_random(4000, 4000, 40000, 779), gpusim::gtx1080ti());
  double prev = 0.0;
  for (index_t n : {16, 64, 256}) {
    const double t =
        g.aggregation_time_ms(AggregatorBackend::GeSpMM, ReduceKind::Sum, n, false);
    EXPECT_GT(t, prev) << "aggregation time must grow with feature width";
    prev = t;
  }
}

TEST(AggregationTiming, BackendOrderingOnMediumGraph) {
  // The orderings Figs. 13/14 rest on: GE < DGL-cuSPARSE < PyG for SpMM,
  // and GE < DGL-fallback for SpMM-like.
  GnnGraph g(sparse::uniform_random(8000, 8000, 80000, 780), gpusim::gtx1080ti());
  const index_t n = 128;
  const double ge = g.aggregation_time_ms(AggregatorBackend::GeSpMM, ReduceKind::Sum, n, false);
  const double dgl =
      g.aggregation_time_ms(AggregatorBackend::DglCusparse, ReduceKind::Sum, n, false);
  const double pyg = g.aggregation_time_ms(AggregatorBackend::PyGMessagePassing,
                                           ReduceKind::Sum, n, false);
  EXPECT_LT(ge, dgl);
  EXPECT_LT(dgl, pyg);
  const double ge_like =
      g.aggregation_time_ms(AggregatorBackend::GeSpMM, ReduceKind::Max, n, false);
  const double dgl_like =
      g.aggregation_time_ms(AggregatorBackend::DglFallback, ReduceKind::Max, n, false);
  EXPECT_LT(ge_like, dgl_like);
}

TEST(AggregationTiming, TransposedOperandPricedSeparately) {
  // Forward and backward operate on different operands (A vs A^T) whose
  // structure can differ (skewed in-degrees) — both must be simulated.
  GnnGraph g(sparse::rmat(11, 6.0, 0.6, 0.18, 0.18, 781), gpusim::gtx1080ti());
  const double fwd =
      g.aggregation_time_ms(AggregatorBackend::GeSpMM, ReduceKind::Sum, 64, false);
  const double bwd =
      g.aggregation_time_ms(AggregatorBackend::GeSpMM, ReduceKind::Sum, 64, true);
  EXPECT_GT(fwd, 0.0);
  EXPECT_GT(bwd, 0.0);
  // Same nnz either way: times must be within 3x of each other.
  EXPECT_LT(std::max(fwd, bwd) / std::min(fwd, bwd), 3.0);
}

TEST(AggregationTiming, TimeCacheTellsGraphsWithEqualSampledEntriesApart) {
  // Two 4000 x 32000 graphs with 8 nonzeros per row on average and
  // colind[p] = p. They agree on rows, cols, nnz, colind and every 7th
  // rowptr entry; b piles each 7-row segment's nonzeros into its first row.
  const index_t rows = 4000;
  const index_t per_row = 8;
  sparse::Csr a(rows, rows * per_row);
  for (index_t p = 0; p < rows * per_row; ++p) {
    a.colind.push_back(p);
    a.val.push_back(1.0f);
  }
  sparse::Csr b = a;
  for (index_t i = 0; i <= rows; ++i) {
    a.rowptr[static_cast<std::size_t>(i)] = per_row * i;
    const index_t segment = i / 7 * 7;
    b.rowptr[static_cast<std::size_t>(i)] =
        i == segment ? per_row * i : per_row * std::min(segment + 7, rows);
  }
  a.validate();
  b.validate();
  ASSERT_NE(a, b);

  const gpusim::DeviceSpec dev = gpusim::gtx1080ti();
  ProfileOptions opt;
  opt.device = dev;
  opt.sample = gpusim::SamplePolicy::sampled(1024);
  for (const sparse::Csr* g : {&a, &b}) {
    gpusim::reset_device_address_space();
    const double cached = GnnGraph(*g, dev).aggregation_time_ms(
        AggregatorBackend::GeSpMM, ReduceKind::Sum, 64, false);
    gpusim::reset_device_address_space();
    const double priced = profile_spmm_shape(*g, 64, opt).time_ms();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cached), std::bit_cast<std::uint64_t>(priced))
        << (g == &a ? "graph a" : "graph b");
  }
}

TEST(SyntheticData, LabelsAndFeaturesAreDeterministicAndInRange) {
  const auto d = sparse::cora();
  const auto l1 = synthetic_labels(d, 1);
  const auto l2 = synthetic_labels(d, 1);
  EXPECT_EQ(l1, l2);
  for (int y : l1) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, d.num_classes);
  }
  const Tensor f1 = synthetic_features(d, 64, 2);
  const Tensor f2 = synthetic_features(d, 64, 2);
  EXPECT_EQ(f1.rows(), d.adj.rows);
  EXPECT_EQ(f1.cols(), 64);
  for (std::size_t i = 0; i < f1.size(); ++i) EXPECT_EQ(f1.flat()[i], f2.flat()[i]);
}

}  // namespace
}  // namespace gespmm::gnn
