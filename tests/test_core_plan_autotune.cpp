/// Learned kernel selection and the CF autotuner.

#include <gtest/gtest.h>

#include "core/autotune.hpp"
#include "sparse/generators.hpp"

namespace gespmm {
namespace {

TEST(SelectSpmmAlgo, AdaptiveAlgoSelection) {
  // The paper's width rule on a matrix with no dense rows: CRC up to one
  // warp of columns, CRC+CWM with CF=2 beyond.
  const Csr a = sparse::uniform_random(64, 64, 256, 506);
  EXPECT_EQ(select_spmm_algo(a, 16, gpusim::gtx1080ti()), SpmmAlgo::Crc);
  EXPECT_EQ(select_spmm_algo(a, 256, gpusim::gtx1080ti()), SpmmAlgo::CrcCwm2);
}

// These sweep tests request SelectionMode::Exact explicitly: the default
// is the trained predictor (see test_plan_select.cpp), which prices only
// its chosen kernel and would not produce per-candidate times.
AutotuneOptions exact_opts() {
  AutotuneOptions opt;
  opt.mode = SelectionMode::Exact;
  return opt;
}

TEST(Autotune, DefaultRuleIsNearOptimalOnTypicalMatrices) {
  // The paper keeps CF=2 untuned because it loses >15% only rarely; the
  // tuner must confirm that on a typical matrix.
  const Csr a = sparse::uniform_random(8192, 8192, 65536, 507);
  const auto res = autotune_spmm(a, 256, exact_opts());
  EXPECT_EQ(res.default_choice, SpmmAlgo::CrcCwm2);
  const double gain = res.times_ms.at(res.default_choice) / res.times_ms.at(res.best);
  EXPECT_GE(gain, 1.0);
  EXPECT_LT(gain, 1.15)
      << "fixed CF=2 should be within 15% of tuned on a uniform matrix";
  // The sweep prices the full candidate set — the CF variants plus hybrid
  // when the matrix has dense rows (a uniform mean-8 matrix's tail has a
  // few, so hybrid is swept here, and loses honestly).
  EXPECT_EQ(res.times_ms.size(),
            autotune_candidates(a, 256, exact_opts().device).size());
  EXPECT_FALSE(res.predicted);
  EXPECT_GT(res.build_ms, 0.0) << "a multi-candidate sweep has selection cost";
}

TEST(Autotune, SmallNOnlyConsidersCrc) {
  const Csr a = sparse::uniform_random(1024, 1024, 8192, 508);
  const auto res = autotune_spmm(a, 16, exact_opts());
  EXPECT_EQ(res.best, SpmmAlgo::Crc);
  // Below one warp of columns there is nothing to coarsen: no CWM variant
  // may be swept. (Hybrid candidacy is density-based, not width-based, so
  // the handful of dense tail rows keep it in the sweep.)
  EXPECT_EQ(res.times_ms.count(SpmmAlgo::CrcCwm2), 0u);
  EXPECT_EQ(res.times_ms.count(SpmmAlgo::CrcCwm4), 0u);
  EXPECT_EQ(res.times_ms.count(SpmmAlgo::CrcCwm8), 0u);
  EXPECT_EQ(res.times_ms.size(),
            autotune_candidates(a, 16, exact_opts().device).size());
  EXPECT_DOUBLE_EQ(res.times_ms.at(res.default_choice) / res.times_ms.at(res.best), 1.0);
}

TEST(Autotune, ReportsPerCandidateTimes) {
  const Csr a = sparse::uniform_random(4096, 4096, 32768, 509);
  AutotuneOptions opt = exact_opts();
  opt.device = gpusim::rtx2080();
  const auto res = autotune_spmm(a, 128, opt);
  for (const auto& [algo, ms] : res.times_ms) {
    EXPECT_GT(ms, 0.0) << kernels::algo_name(algo);
  }
  // Best really is the minimum.
  for (const auto& [algo, ms] : res.times_ms) {
    EXPECT_LE(res.times_ms.at(res.best), ms);
  }
}

}  // namespace
}  // namespace gespmm
