/// Load-balance properties of the kernel families on skewed (power-law)
/// matrices: GE-SpMM's block-per-row mapping tracks nnz rather than degree
/// skew, and every row mapping accounts for every nonzero exactly once.

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "sparse/generators.hpp"

namespace gespmm {
namespace {

using kernels::SpmmAlgo;
using kernels::SpmmProblem;
using kernels::SpmmRunOptions;
using sparse::Csr;

double time_of(const Csr& a, sparse::index_t n, SpmmAlgo algo,
               const gpusim::DeviceSpec& dev) {
  SpmmProblem p(a, n, algo == SpmmAlgo::Csrmm2 ? kernels::Layout::ColMajor
                                               : kernels::Layout::RowMajor);
  SpmmRunOptions o;
  o.device = dev;
  // Full simulation: the tail (critical-path) term depends on the *max*
  // per-block chain, which block sampling can miss.
  return kernels::run_spmm(algo, p, o).time_ms();
}

TEST(LoadBalance, GeSpmmRobustAcrossSkewLevels) {
  // GE-SpMM assigns blocks per row but the within-row tile loop adapts to
  // the length, so its time should track nnz rather than max row length.
  const auto dev = gpusim::gtx1080ti();
  const Csr mild = sparse::rmat(11, 8.0, 0.45, 0.25, 0.25, 44);
  const Csr heavy = sparse::rmat(11, 8.0, 0.65, 0.15, 0.15, 45);
  const double t_mild = time_of(mild, 128, SpmmAlgo::GeSpMM, dev);
  const double t_heavy = time_of(heavy, 128, SpmmAlgo::GeSpMM, dev);
  const double nnz_ratio =
      static_cast<double>(heavy.nnz()) / static_cast<double>(mild.nnz());
  const double time_ratio = t_heavy / t_mild;
  EXPECT_LT(time_ratio / nnz_ratio, 1.8)
      << "GE-SpMM time should roughly track nnz, not degree skew";
  EXPECT_GT(time_ratio / nnz_ratio, 0.4);
}

TEST(LoadBalance, FlopAccountingCoversAllNnz) {
  // Metrics sanity: FLOP count must equal 2 * nnz * N for every mapping.
  const Csr a = sparse::rmat(10, 6.0, 0.55, 0.2, 0.2, 47);
  for (auto algo : {SpmmAlgo::RowSplitGB, SpmmAlgo::GeSpMM}) {
    SpmmProblem p(a, 64);
    SpmmRunOptions o;  // full simulation
    const auto res = kernels::run_spmm(algo, p, o);
    const auto expected = 2ull * static_cast<std::uint64_t>(a.nnz()) * 64ull;
    EXPECT_EQ(res.metrics.flops, expected) << kernels::algo_name(algo);
  }
}

}  // namespace
}  // namespace gespmm
