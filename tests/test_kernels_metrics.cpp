/// Property tests on simulated kernel metrics: the *mechanisms* the paper
/// claims (coalescing, data reuse, ILP) must be visible in the counters,
/// and the calibrated cost model must reproduce the paper's headline
/// shapes. These tests guard the calibration against regressions.

#include <gtest/gtest.h>

#include "kernels/registry.hpp"
#include "kernels/spmm_aspt.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using kernels::SpmmAlgo;
using kernels::SpmmProblem;
using kernels::SpmmRunOptions;
using sparse::Csr;

SpmmRunOptions opts(const gpusim::DeviceSpec& dev) {
  SpmmRunOptions o;
  o.device = dev;
  o.sample = gpusim::SamplePolicy::sampled(2048);
  return o;
}

gpusim::LaunchResult run(const Csr& a, sparse::index_t n, SpmmAlgo algo,
                         const gpusim::DeviceSpec& dev) {
  SpmmProblem p(a, n, algo == SpmmAlgo::Csrmm2 ? kernels::Layout::ColMajor
                                               : kernels::Layout::RowMajor);
  return kernels::run_spmm(algo, p, opts(dev));
}

class MetricsFixture : public ::testing::Test {
 protected:
  static const Csr& matrix() {
    static const Csr a = sparse::uniform_random(16384, 16384, 163840, 0x16AA01ull);
    return a;
  }
};

TEST_F(MetricsFixture, CrcReducesLoadTransactions) {
  // Table V: CRC cuts gld_transactions substantially at N=512.
  const auto naive = run(matrix(), 512, SpmmAlgo::Naive, gpusim::gtx1080ti());
  const auto crc = run(matrix(), 512, SpmmAlgo::Crc, gpusim::gtx1080ti());
  EXPECT_LT(crc.metrics.gld_transactions, naive.metrics.gld_transactions);
  EXPECT_GT(static_cast<double>(naive.metrics.gld_transactions) /
                static_cast<double>(crc.metrics.gld_transactions),
            1.2);
}

TEST_F(MetricsFixture, CrcRaisesLoadEfficiencyToPaperLevels) {
  // Table V: 68.95% -> 92.40%.
  const auto naive = run(matrix(), 512, SpmmAlgo::Naive, gpusim::gtx1080ti());
  const auto crc = run(matrix(), 512, SpmmAlgo::Crc, gpusim::gtx1080ti());
  EXPECT_NEAR(naive.metrics.gld_efficiency(), 0.69, 0.05);
  EXPECT_NEAR(crc.metrics.gld_efficiency(), 0.92, 0.04);
}

TEST_F(MetricsFixture, CwmReducesTransactionsMonotonicallyInCf) {
  // Table VI: GLT decreases as CF grows (with diminishing returns).
  const auto dev = gpusim::gtx1080ti();
  const auto crc = run(matrix(), 512, SpmmAlgo::Crc, dev);
  const auto cf2 = run(matrix(), 512, SpmmAlgo::CrcCwm2, dev);
  const auto cf4 = run(matrix(), 512, SpmmAlgo::CrcCwm4, dev);
  const auto cf8 = run(matrix(), 512, SpmmAlgo::CrcCwm8, dev);
  EXPECT_GT(crc.metrics.gld_transactions, cf2.metrics.gld_transactions);
  EXPECT_GT(cf2.metrics.gld_transactions, cf4.metrics.gld_transactions);
  EXPECT_GT(cf4.metrics.gld_transactions, cf8.metrics.gld_transactions);
  // Diminishing returns: the CF2->CF4 saving is smaller than CRC->CF2.
  EXPECT_LT(cf2.metrics.gld_transactions - cf4.metrics.gld_transactions,
            crc.metrics.gld_transactions - cf2.metrics.gld_transactions);
}

TEST_F(MetricsFixture, CwmReducesOccupancyAsCfGrows) {
  // Table VI: achieved occupancy declines with CF.
  const auto dev = gpusim::gtx1080ti();
  const auto cf2 = run(matrix(), 512, SpmmAlgo::CrcCwm2, dev);
  const auto cf8 = run(matrix(), 512, SpmmAlgo::CrcCwm8, dev);
  EXPECT_LT(cf8.achieved_occupancy, cf2.achieved_occupancy);
}

TEST_F(MetricsFixture, Cf2IsTheSweetSpotOnBothDevices) {
  // Fig. 9: CF=2 robustly best, CF=8 clearly declining.
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    const double t2 = run(matrix(), 512, SpmmAlgo::CrcCwm2, dev).time_ms();
    const double t4 = run(matrix(), 512, SpmmAlgo::CrcCwm4, dev).time_ms();
    const double t8 = run(matrix(), 512, SpmmAlgo::CrcCwm8, dev).time_ms();
    EXPECT_LT(t2, t4) << dev.name;
    EXPECT_LT(t4, t8) << dev.name;
  }
}

TEST_F(MetricsFixture, CrcSpeedupPascalButNotTuring) {
  // Fig. 8 + Section V-B1: CRC alone gives ~1.25x on the GTX 1080Ti but
  // ~1.0x on the RTX 2080 (whose unified L1 absorbs the broadcasts).
  const double pascal_naive = run(matrix(), 512, SpmmAlgo::Naive, gpusim::gtx1080ti()).time_ms();
  const double pascal_crc = run(matrix(), 512, SpmmAlgo::Crc, gpusim::gtx1080ti()).time_ms();
  const double sp_pascal = pascal_naive / pascal_crc;
  EXPECT_GT(sp_pascal, 1.12);
  EXPECT_LT(sp_pascal, 1.6);

  const double turing_naive = run(matrix(), 512, SpmmAlgo::Naive, gpusim::rtx2080()).time_ms();
  const double turing_crc = run(matrix(), 512, SpmmAlgo::Crc, gpusim::rtx2080()).time_ms();
  const double sp_turing = turing_naive / turing_crc;
  EXPECT_NEAR(sp_turing, 1.0, 0.08);
}

TEST_F(MetricsFixture, CombinedCrcCwmSpeedupMatchesPaperOnBothDevices) {
  // Section V-B2: CRC+CWM vs Algorithm 1 = ~1.65x (1080Ti) / ~1.51x (2080).
  const double p =
      run(matrix(), 512, SpmmAlgo::Naive, gpusim::gtx1080ti()).time_ms() /
      run(matrix(), 512, SpmmAlgo::CrcCwm2, gpusim::gtx1080ti()).time_ms();
  EXPECT_NEAR(p, 1.65, 0.30);
  const double t =
      run(matrix(), 512, SpmmAlgo::Naive, gpusim::rtx2080()).time_ms() /
      run(matrix(), 512, SpmmAlgo::CrcCwm2, gpusim::rtx2080()).time_ms();
  EXPECT_NEAR(t, 1.51, 0.30);
}

TEST_F(MetricsFixture, GeSpmmBeatsCusparseAndGraphblastAtLargeN) {
  // Table VII shapes at N=512.
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    const double ge = run(matrix(), 512, SpmmAlgo::GeSpMM, dev).time_ms();
    const double cus = run(matrix(), 512, SpmmAlgo::Csrmm2, dev).time_ms();
    const double gb = run(matrix(), 512, SpmmAlgo::RowSplitGB, dev).time_ms();
    EXPECT_GT(cus / ge, 1.05) << dev.name;
    EXPECT_LT(cus / ge, 1.9) << dev.name;
    EXPECT_GT(gb / ge, 1.2) << dev.name;
    EXPECT_LT(gb / ge, 2.5) << dev.name;
  }
}

TEST_F(MetricsFixture, MarginOverCusparseGrowsWithN) {
  // Fig. 11 observation: GE-SpMM becomes more competitive as N grows.
  const auto dev = gpusim::gtx1080ti();
  const double r128 = run(matrix(), 128, SpmmAlgo::Csrmm2, dev).time_ms() /
                      run(matrix(), 128, SpmmAlgo::GeSpMM, dev).time_ms();
  const double r512 = run(matrix(), 512, SpmmAlgo::Csrmm2, dev).time_ms() /
                      run(matrix(), 512, SpmmAlgo::GeSpMM, dev).time_ms();
  EXPECT_GT(r512, r128 * 0.98);
}

TEST_F(MetricsFixture, GunrockIsAnOrderOfMagnitudeSlower) {
  // Fig. 12: feature-dimension-serial graph engines lose badly (18x avg).
  const auto cit = sparse::cora();
  const double ge = run(cit.adj, 64, SpmmAlgo::GeSpMM, gpusim::gtx1080ti()).time_ms();
  const double gr = run(cit.adj, 64, SpmmAlgo::Gunrock, gpusim::gtx1080ti()).time_ms();
  EXPECT_GT(gr / ge, 6.0);
}

TEST_F(MetricsFixture, DglFallbackLosesToGeSpmmLike) {
  // Section V-F2: GE-SpMM's SpMM-like is 2.39x-6.15x faster than DGL's
  // fallback kernel.
  SpmmRunOptions o = opts(gpusim::gtx1080ti());
  o.reduce = kernels::ReduceKind::Max;
  const auto g = sparse::pubmed().adj;
  SpmmProblem p1(g, 64), p2(g, 64);
  const double dgl = kernels::run_spmm(SpmmAlgo::DglFallback, p1, o).time_ms();
  const double ge = kernels::run_spmm(SpmmAlgo::GeSpMM, p2, o).time_ms();
  EXPECT_GT(dgl / ge, 2.0);
  EXPECT_LT(dgl / ge, 12.0);
}

TEST_F(MetricsFixture, UsefulBytesNeverExceedTransactedBytes) {
  for (auto algo : {SpmmAlgo::Naive, SpmmAlgo::Crc, SpmmAlgo::CrcCwm2,
                    SpmmAlgo::RowSplitGB, SpmmAlgo::DglFallback}) {
    const auto r = run(matrix(), 96, algo, gpusim::rtx2080());
    EXPECT_LE(r.metrics.gld_useful_bytes, r.metrics.gld_bytes())
        << kernels::algo_name(algo);
    EXPECT_LE(r.metrics.l1_hits + r.metrics.l2_hits,
              r.metrics.gld_transactions)
        << kernels::algo_name(algo);
  }
}

TEST_F(MetricsFixture, SampledRunApproximatesFullRun) {
  const Csr a = sparse::uniform_random(8192, 8192, 81920, 77);
  SpmmProblem pf(a, 128), ps(a, 128);
  SpmmRunOptions full;
  SpmmRunOptions samp;
  samp.sample = gpusim::SamplePolicy::sampled(512);
  const auto rf = kernels::run_spmm(SpmmAlgo::CrcCwm2, pf, full);
  const auto rs = kernels::run_spmm(SpmmAlgo::CrcCwm2, ps, samp);
  const double rel = std::abs(static_cast<double>(rs.metrics.gld_transactions) -
                              static_cast<double>(rf.metrics.gld_transactions)) /
                     static_cast<double>(rf.metrics.gld_transactions);
  EXPECT_LT(rel, 0.05);
  EXPECT_NEAR(rs.time_ms(), rf.time_ms(), rf.time_ms() * 0.08);
}

TEST(AsptMetrics, AsptKernelWinsOnClusteredButPaysPreprocessing) {
  // Table VIII's mechanism: ASpT's dense-tile reuse makes its *kernel*
  // competitive or better (strongly so on clustered matrices, near parity
  // on the suite geomean: paper 0.85-1.00), but a real preprocessing pass
  // must be charged for one-shot GNN use.
  const Csr a = sparse::rmat(13, 16.0, 0.57, 0.19, 0.19, 99);
  const auto dev = gpusim::gtx1080ti();
  SpmmProblem p1(a, 128), p2(a, 128);
  SpmmRunOptions o = opts(dev);
  const auto build = sparse::build_aspt(a);
  ASSERT_GT(build.matrix.heavy_fraction(), 0.3);
  kernels::AsptDevice ad(build.matrix);
  const double aspt = kernels::run_spmm_aspt(ad, p1, o).time_ms();
  const double ge = kernels::run_spmm(SpmmAlgo::GeSpMM, p2, o).time_ms();
  // The band is wide on purpose: dense-tile reuse favours ASpT while its
  // 128-row panel blocks concentrate more of a skewed matrix's load into
  // one block (the cost model's tail term), which favours GE.
  EXPECT_GT(ge / aspt, 0.55) << "ASpT kernel should be at least competitive";
  EXPECT_LT(ge / aspt, 2.5) << "clustered matrices favour ASpT, within reason";
  // Preprocessing is a substantial fraction of kernel time (paper: avg
  // 0.47x of one SpMM, up to 64x) — it cannot be amortized in one-shot
  // inference/sampled-batch settings.
  const double pre = kernels::aspt_preprocess_time_ms(build, dev);
  EXPECT_GT(pre / aspt, 0.3);
}

}  // namespace
}  // namespace gespmm
