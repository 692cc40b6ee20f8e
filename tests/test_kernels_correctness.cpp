/// Functional correctness of every simulated SpMM kernel against the
/// sequential host reference, across a structurally diverse matrix zoo,
/// feature widths N (including non-multiples of the warp size), devices,
/// and reductions.

#include <gtest/gtest.h>

#include "gpusim/launch.hpp"
#include "kernels/registry.hpp"
#include "kernels/spmm_aspt.hpp"
#include "sparse/aspt.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using kernels::ReduceKind;
using kernels::SpmmAlgo;
using kernels::SpmmProblem;
using kernels::SpmmRunOptions;
using testutil::DenseMatrix;
using testutil::expect_matches_reference;
using sparse::Csr;

struct Case {
  std::string matrix_name;
  sparse::index_t n;
  SpmmAlgo algo;
  ReduceKind reduce;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.matrix_name << "_n" << c.n << "_" << kernels::algo_name(c.algo) << "_"
            << kernels::reduce_kind_name(c.reduce);
}

Csr matrix_by_name(const std::string& name) {
  if (name == "uniform") return testutil::zoo_uniform();
  if (name == "skewed") return testutil::zoo_skewed();
  if (name == "widerow") return testutil::zoo_wide_row();
  if (name == "emptyrows") return testutil::zoo_empty_rows();
  if (name == "single") return testutil::zoo_single_entry();
  if (name == "allempty") return testutil::zoo_all_empty();
  throw std::runtime_error("unknown zoo matrix " + name);
}

class SpmmCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(SpmmCorrectness, MatchesHostReference) {
  const Case& c = GetParam();
  const Csr a = matrix_by_name(c.matrix_name);
  const bool col_major = c.algo == SpmmAlgo::Csrmm2;
  SpmmProblem p(a, c.n,
                col_major ? kernels::Layout::ColMajor : kernels::Layout::RowMajor);
  kernels::fill_random(p.B, 42);

  SpmmRunOptions opt;
  opt.reduce = c.reduce;
  ASSERT_NO_THROW({ kernels::run_spmm(c.algo, p, opt); });
  expect_matches_reference(a, p.B, p.C, c.reduce);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const std::vector<std::string> matrices = {"uniform", "skewed",  "widerow",
                                             "emptyrows", "single", "allempty"};
  const std::vector<sparse::index_t> ns = {1, 8, 16, 32, 33, 64, 128};
  // Every kernel on sum; every GE kernel additionally on max / mean / min.
  const std::vector<SpmmAlgo> sum_algos = {
      SpmmAlgo::Naive,      SpmmAlgo::Crc,     SpmmAlgo::CrcCwm2,
      SpmmAlgo::CrcCwm4,    SpmmAlgo::CrcCwm8, SpmmAlgo::GeSpMM,
      SpmmAlgo::RowSplitGB, SpmmAlgo::Csrmm2,  SpmmAlgo::Gunrock,
      SpmmAlgo::DglFallback};
  for (const auto& m : matrices) {
    for (auto n : ns) {
      for (auto algo : sum_algos) {
        cases.push_back({m, n, algo, ReduceKind::Sum});
      }
    }
  }
  const std::vector<SpmmAlgo> like_algos = {SpmmAlgo::Naive, SpmmAlgo::Crc,
                                            SpmmAlgo::CrcCwm2, SpmmAlgo::RowSplitGB,
                                            SpmmAlgo::DglFallback};
  for (const auto& m : {std::string("uniform"), std::string("emptyrows")}) {
    for (auto n : {sparse::index_t{16}, sparse::index_t{64}}) {
      for (auto algo : like_algos) {
        for (auto k : {ReduceKind::Max, ReduceKind::Min, ReduceKind::Mean}) {
          cases.push_back({m, n, algo, k});
        }
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s = info.param.matrix_name + "_n" + std::to_string(info.param.n) + "_";
  s += kernels::algo_name(info.param.algo);
  s += "_";
  s += kernels::reduce_kind_name(info.param.reduce);
  for (auto& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Zoo, SpmmCorrectness, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST(SpmmAspt, MatchesReferenceOnStructuredMatrix) {
  // Clustered matrix so heavy tiles actually form.
  const Csr a = sparse::rmat(10, 12.0, 0.55, 0.2, 0.2, 7);
  for (sparse::index_t n : {16, 64, 130}) {
    SpmmProblem p(a, n);
    kernels::fill_random(p.B, 7);
    const auto build = sparse::build_aspt(a);
    ASSERT_GT(build.matrix.heavy_nnz, 0) << "expected heavy tiles on clustered input";
    kernels::AsptDevice dev(build.matrix);
    kernels::run_spmm_aspt(dev, p);
    expect_matches_reference(a, p.B, p.C, ReduceKind::Sum);
  }
}

TEST(SpmmAspt, MatchesReferenceOnUniformMatrix) {
  const Csr a = testutil::zoo_uniform();
  SpmmProblem p(a, 48);
  kernels::fill_random(p.B, 9);
  const auto build = sparse::build_aspt(a);
  kernels::AsptDevice dev(build.matrix);
  kernels::run_spmm_aspt(dev, p);
  expect_matches_reference(a, p.B, p.C, ReduceKind::Sum);
}

TEST(SpmmErrors, Csrmm2RejectsRowMajorOutput) {
  const Csr a = testutil::zoo_uniform();
  SpmmProblem p(a, 32);  // row-major C
  EXPECT_THROW(kernels::run_spmm(SpmmAlgo::Csrmm2, p, SpmmRunOptions{}),
               std::invalid_argument);
}

TEST(SpmmErrors, SumOnlyKernelsRejectCustomReduce) {
  const Csr a = testutil::zoo_uniform();
  SpmmRunOptions opt;
  opt.reduce = ReduceKind::Max;
  {
    SpmmProblem p(a, 32, kernels::Layout::ColMajor);
    EXPECT_THROW(kernels::run_spmm(SpmmAlgo::Csrmm2, p, opt), std::invalid_argument);
  }
  {
    SpmmProblem p(a, 32);
    EXPECT_THROW(kernels::run_spmm(SpmmAlgo::Gunrock, p, opt), std::invalid_argument);
  }
}

TEST(SpmmAdaptive, SelectsCrcForSmallNAndCwmForLargeN) {
  EXPECT_EQ(kernels::select_gespmm_algo(16), SpmmAlgo::Crc);
  EXPECT_EQ(kernels::select_gespmm_algo(32), SpmmAlgo::Crc);
  EXPECT_EQ(kernels::select_gespmm_algo(33), SpmmAlgo::CrcCwm2);
  EXPECT_EQ(kernels::select_gespmm_algo(512), SpmmAlgo::CrcCwm2);
}

TEST(SpmmDeterminism, RepeatedRunsProduceIdenticalMetrics) {
  const Csr a = testutil::zoo_skewed();
  SpmmProblem p(a, 64);
  kernels::fill_random(p.B, 11);
  const auto r1 = kernels::run_spmm(SpmmAlgo::CrcCwm2, p, SpmmRunOptions{});
  const auto r2 = kernels::run_spmm(SpmmAlgo::CrcCwm2, p, SpmmRunOptions{});
  EXPECT_EQ(r1.metrics.gld_transactions, r2.metrics.gld_transactions);
  EXPECT_EQ(r1.metrics.dram_transactions, r2.metrics.dram_transactions);
  EXPECT_EQ(r1.metrics.l2_hits, r2.metrics.l2_hits);
  EXPECT_DOUBLE_EQ(r1.time_ms(), r2.time_ms());
}

}  // namespace
}  // namespace gespmm
