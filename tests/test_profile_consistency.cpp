/// Cross-cutting consistency of the profiled path: sampled runs must
/// approximate full runs for every kernel family, metrics must be
/// device-independent where the architecture cannot matter, and the
/// public profile API must agree with the registry it wraps.

#include <gtest/gtest.h>

#include "core/gespmm.hpp"
#include "sparse/generators.hpp"

namespace gespmm {
namespace {

class ProfileConsistency : public ::testing::TestWithParam<SpmmAlgo> {};

TEST_P(ProfileConsistency, SampledApproximatesFull) {
  const SpmmAlgo algo = GetParam();
  const Csr a = sparse::uniform_random(6144, 6144, 49152, 1234);
  ProfileOptions full;
  full.algo = algo;
  ProfileOptions sampled = full;
  sampled.sample = gpusim::SamplePolicy::sampled(512);
  const auto rf = profile_spmm_shape(a, 96, full);
  const auto rs = profile_spmm_shape(a, 96, sampled);
  ASSERT_GT(rf.result.metrics.gld_transactions, 0u);
  const double rel =
      std::abs(static_cast<double>(rs.result.metrics.gld_transactions) -
               static_cast<double>(rf.result.metrics.gld_transactions)) /
      static_cast<double>(rf.result.metrics.gld_transactions);
  EXPECT_LT(rel, 0.06) << kernels::algo_name(algo);
  EXPECT_NEAR(rs.time_ms(), rf.time_ms(), rf.time_ms() * 0.15)
      << kernels::algo_name(algo);
}

TEST_P(ProfileConsistency, TransactionCountsAreArchitectureIndependent) {
  // Coalescing is a warp-geometry property: both devices must report the
  // same gld_transactions; only cache hits and time may differ.
  const SpmmAlgo algo = GetParam();
  const Csr a = sparse::rmat(10, 8.0, 0.5, 0.22, 0.22, 1235);
  ProfileOptions pascal;
  pascal.algo = algo;
  pascal.device = gpusim::gtx1080ti();
  ProfileOptions turing = pascal;
  turing.device = gpusim::rtx2080();
  const auto rp = profile_spmm_shape(a, 64, pascal);
  const auto rt = profile_spmm_shape(a, 64, turing);
  EXPECT_EQ(rp.result.metrics.gld_transactions, rt.result.metrics.gld_transactions)
      << kernels::algo_name(algo);
  EXPECT_EQ(rp.result.metrics.gld_useful_bytes, rt.result.metrics.gld_useful_bytes)
      << kernels::algo_name(algo);
  EXPECT_EQ(rp.result.metrics.l1_hits, 0u) << "Pascal L1 must stay bypassed";
}

TEST_P(ProfileConsistency, FlopsMatchNominalCount) {
  const SpmmAlgo algo = GetParam();
  const Csr a = sparse::uniform_random(2048, 2048, 16384, 1236);
  ProfileOptions opt;
  opt.algo = algo;
  const auto r = profile_spmm_shape(a, 32, opt);
  const auto nominal = 2ull * static_cast<std::uint64_t>(a.nnz()) * 32ull;
  EXPECT_GE(r.result.metrics.flops, nominal) << kernels::algo_name(algo);
  EXPECT_LE(r.result.metrics.flops, nominal + nominal / 10)
      << kernels::algo_name(algo);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ProfileConsistency,
    ::testing::Values(SpmmAlgo::Naive, SpmmAlgo::Crc, SpmmAlgo::CrcCwm2,
                      SpmmAlgo::CrcCwm4, SpmmAlgo::RowSplitGB, SpmmAlgo::Csrmm2,
                      SpmmAlgo::DglFallback),
    [](const auto& info) {
      std::string s = kernels::algo_name(info.param);
      for (auto& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace gespmm
