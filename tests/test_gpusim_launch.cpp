/// Launch engine tests: metric collection, block sampling extrapolation,
/// determinism, cost-model sanity/monotonicity properties, and pricing on
/// address-only operands.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gpusim/gpusim.hpp"
#include "kernels/registry.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_problem.hpp"
#include "sparse/generators.hpp"

namespace gespmm::gpusim {
namespace {

/// Toy kernel: every warp streams `len` contiguous floats and stores one
/// value — fully predictable metrics.
class StreamKernel final : public Kernel {
 public:
  StreamKernel(DeviceArray<float>& in, DeviceArray<float>& out, long long grid, int len)
      : in_(&in), out_(&out), grid_(grid), len_(len) {}

  LaunchConfig config(const DeviceSpec&) const override {
    LaunchConfig cfg;
    cfg.grid = grid_;
    cfg.block = 64;  // 2 warps
    cfg.regs_per_thread = 24;
    return cfg;
  }
  std::string name() const override { return "stream"; }

  void run_block(BlockCtx& blk) const override {
    for (int w = 0; w < blk.num_warps(); ++w) {
      WarpCtx warp = blk.warp(w);
      Lanes<float> acc = splat(0.0f);
      for (int t = 0; t < len_; t += kWarpSize) {
        const auto base = (blk.block_id() * 2 + w) % 7 * 1024 + t;
        const auto v = warp.ld_contig(*in_, base, kFullMask);
        for (int l = 0; l < kWarpSize; ++l) {
          acc[static_cast<std::size_t>(l)] += v[static_cast<std::size_t>(l)];
        }
        warp.count_fma(kWarpSize);
      }
      warp.st_contig(*out_, (blk.block_id() * 2 + w) * kWarpSize % 512, acc, kFullMask);
    }
  }

 private:
  DeviceArray<float>* in_;
  DeviceArray<float>* out_;
  long long grid_;
  int len_;
};

class LaunchFixture : public ::testing::Test {
 protected:
  DeviceArray<float> in_{16 * 1024, 1.0f};
  DeviceArray<float> out_{16 * 1024, 0.0f};
};

TEST_F(LaunchFixture, MetricsMatchHandComputedCounts) {
  StreamKernel k(in_, out_, /*grid=*/10, /*len=*/128);
  const auto r = launch(gtx1080ti(), k);
  // 10 blocks x 2 warps x 4 tile loads, each 4 transactions (aligned).
  EXPECT_EQ(r.metrics.gld_instructions, 10u * 2 * 4);
  EXPECT_EQ(r.metrics.gld_transactions, 10u * 2 * 4 * 4);
  EXPECT_EQ(r.metrics.gld_useful_bytes, 10u * 2 * 4 * 128);
  EXPECT_DOUBLE_EQ(r.metrics.gld_efficiency(), 1.0);
  EXPECT_EQ(r.metrics.gst_instructions, 10u * 2);
  EXPECT_EQ(r.metrics.flops, 10u * 2 * 4 * 2 * 32);
  EXPECT_EQ(r.metrics.num_blocks, 10u);
  EXPECT_EQ(r.metrics.num_warps, 20u);
}

TEST_F(LaunchFixture, SampledMetricsExtrapolateCloseToFull) {
  StreamKernel k(in_, out_, /*grid=*/4096, /*len=*/256);
  const auto full = launch(gtx1080ti(), k, SamplePolicy::full());
  const auto sampled = launch(gtx1080ti(), k, SamplePolicy::sampled(512));
  EXPECT_GT(sampled.metrics.sample_scale, 1.0);
  const double rel =
      std::abs(static_cast<double>(sampled.metrics.gld_transactions) -
               static_cast<double>(full.metrics.gld_transactions)) /
      static_cast<double>(full.metrics.gld_transactions);
  EXPECT_LT(rel, 0.02) << "sampling should extrapolate within 2% on a uniform grid";
  EXPECT_NEAR(sampled.time_ms(), full.time_ms(), full.time_ms() * 0.05);
}

TEST_F(LaunchFixture, DeterministicAcrossRuns) {
  StreamKernel k(in_, out_, 777, 96);
  const auto a = launch(rtx2080(), k);
  const auto b = launch(rtx2080(), k);
  EXPECT_EQ(a.metrics.gld_transactions, b.metrics.gld_transactions);
  EXPECT_EQ(a.metrics.l1_hits, b.metrics.l1_hits);
  EXPECT_EQ(a.metrics.l2_hits, b.metrics.l2_hits);
  EXPECT_EQ(a.metrics.dram_transactions, b.metrics.dram_transactions);
  EXPECT_DOUBLE_EQ(a.time_ms(), b.time_ms());
}

TEST_F(LaunchFixture, TuringL1AbsorbsRepeatedLines) {
  StreamKernel k(in_, out_, 64, 128);
  const auto pascal = launch(gtx1080ti(), k);
  const auto turing = launch(rtx2080(), k);
  EXPECT_EQ(pascal.metrics.l1_hits, 0u);  // Pascal L1 bypassed
  EXPECT_GT(turing.metrics.l1_hits, 0u);  // same lines revisited across warps
}

TEST(CostModel, TimeScalesInverselyWithDramTraffic) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.grid = 10000;
  cfg.block = 256;
  const auto occ = compute_occupancy(dev, cfg);
  LaunchMetrics m;
  m.dram_transactions = 1'000'000;
  const auto t1 = estimate_time(dev, cfg, m, occ);
  m.dram_transactions = 2'000'000;
  const auto t2 = estimate_time(dev, cfg, m, occ);
  EXPECT_NEAR(t2.dram_ms / t1.dram_ms, 2.0, 1e-9);
  EXPECT_GT(t2.total_ms, t1.total_ms);
}

TEST(CostModel, IlpRaisesUtilizationUntilCap) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.grid = 100000;
  cfg.block = 256;
  cfg.regs_per_thread = 32;
  const auto occ = compute_occupancy(dev, cfg);
  LaunchMetrics m;
  m.dram_transactions = 10'000'000;
  cfg.ilp = 1.0;
  const auto t1 = estimate_time(dev, cfg, m, occ);
  cfg.ilp = 2.0;
  const auto t2 = estimate_time(dev, cfg, m, occ);
  cfg.ilp = 4.0;  // beyond cap: no further gain
  const auto t4 = estimate_time(dev, cfg, m, occ);
  EXPECT_LT(t2.total_ms, t1.total_ms);
  EXPECT_DOUBLE_EQ(t4.total_ms, t2.total_ms);
}

TEST(CostModel, RegisterPressurePenalizesConcurrency) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.grid = 100000;
  cfg.block = 64;
  const auto occ_lo = compute_occupancy(dev, cfg);
  LaunchMetrics m;
  m.dram_transactions = 10'000'000;
  cfg.regs_per_thread = 32;
  const auto t_lo = estimate_time(dev, cfg, m, occ_lo);
  cfg.regs_per_thread = 80;
  const auto t_hi = estimate_time(dev, cfg, m, compute_occupancy(dev, cfg));
  EXPECT_GT(t_hi.total_ms, t_lo.total_ms);
}

TEST(CostModel, SmallGridIsLatencyBound) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.block = 256;
  LaunchMetrics m;
  m.dram_transactions = 1'000'000;
  cfg.grid = 4;  // cannot fill 28 SMs
  const auto small = estimate_time(dev, cfg, m, compute_occupancy(dev, cfg));
  cfg.grid = 100000;
  const auto big = estimate_time(dev, cfg, m, compute_occupancy(dev, cfg));
  EXPECT_LT(big.utilization * 1.0, 1.0);
  EXPECT_GT(big.utilization, small.utilization);
  EXPECT_GT(small.total_ms, big.total_ms);
}

TEST(CostModel, LaunchOverheadFloorsTinyKernels) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.block = 32;
  LaunchMetrics m;  // no traffic at all
  const auto t = estimate_time(dev, cfg, m, compute_occupancy(dev, cfg));
  EXPECT_GE(t.total_ms, dev.launch_overhead_us * 1e-3);
}

TEST(CostModel, AchievedOccupancyDeratesUnfilledGrid) {
  const auto dev = gtx1080ti();
  LaunchConfig cfg;
  cfg.block = 256;
  cfg.grid = dev.num_sms;  // one block per SM, 8 warps of 64 slots
  const auto occ = compute_occupancy(dev, cfg);
  const double achieved = achieved_occupancy(dev, cfg, occ);
  EXPECT_LT(achieved, occ.fraction);
}

/// Every LaunchMetrics counter and TimeBreakdown term as raw bits, so the
/// comparison of two launches is bitwise (doubles by representation).
std::vector<std::uint64_t> launch_bits(const LaunchResult& r) {
  const LaunchMetrics& m = r.metrics;
  const TimeBreakdown& t = r.time;
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  return {
      m.gld_transactions,
      m.gld_useful_bytes,
      m.gld_instructions,
      m.gst_transactions,
      m.gst_useful_bytes,
      m.gst_instructions,
      m.l1_hits,
      m.l2_hits,
      m.dram_transactions,
      m.smem_load_bytes,
      m.smem_store_bytes,
      m.flops,
      m.warp_instructions,
      m.mma_flops,
      m.mma_instructions,
      m.max_block_gld_instructions,
      m.num_blocks,
      m.num_warps,
      bits(m.sample_scale),
      bits(t.dram_ms),
      bits(t.l2_ms),
      bits(t.l1_ms),
      bits(t.smem_ms),
      bits(t.issue_ms),
      bits(t.mma_ms),
      bits(t.tail_ms),
      bits(t.launch_overhead_ms),
      bits(t.total_ms),
      bits(t.utilization),
      bits(t.concurrency),
  };
}

void expect_bitwise_equal(const LaunchResult& full, const LaunchResult& addr) {
  EXPECT_EQ(launch_bits(full), launch_bits(addr));
  EXPECT_STREQ(full.time.bottleneck, addr.time.bottleneck);
}

/// A pricing run on an address-only problem (B and C without host storage)
/// reports exactly what the same run on real, randomly filled operands
/// reports: no simulated kernel branches on dense values, and the problem
/// reserves the same device ranges in the same order.
TEST(AddressOnlyPricing, BitwiseEqualToFullPayload) {
  using kernels::SpmmAlgo;
  using sparse::Csr;
  using sparse::index_t;
  // Empty rows (fewer nonzeros than rows), a skewed rmat, and a pruned DNN
  // whose dense rows send the hybrid kernel down its MMA partition.
  const std::vector<Csr> matrices = {
      sparse::uniform_random(160, 140, 120, 3),
      sparse::rmat(7, 6.0, 0.57, 0.19, 0.19, 5),
      sparse::pruned_dnn(96, 96, 16, 0.8, 7),
  };
  const SpmmAlgo semiring_algos[] = {
      SpmmAlgo::Naive,   SpmmAlgo::Crc,        SpmmAlgo::CrcCwm2,  SpmmAlgo::CrcCwm4,
      SpmmAlgo::CrcCwm8, SpmmAlgo::RowSplitGB, SpmmAlgo::SpmvLoop, SpmmAlgo::DglFallback};
  const SpmmAlgo sum_only_algos[] = {SpmmAlgo::MergeSplitGB, SpmmAlgo::Csrmm2,
                                     SpmmAlgo::Gunrock};
  bool saw_empty_row = false;
  bool saw_mma_rows = false;
  for (const Csr& a : matrices) {
    for (index_t i = 0; i < a.rows; ++i) {
      saw_empty_row = saw_empty_row || a.rowptr[static_cast<std::size_t>(i)] ==
                                           a.rowptr[static_cast<std::size_t>(i) + 1];
    }
    for (const index_t n : {1, 31, 32, 33, 64, 100}) {
      for (const DeviceSpec& dev : {gtx1080ti(), rtx2080()}) {
        for (const SamplePolicy sample : {SamplePolicy::full(), SamplePolicy::sampled(64)}) {
          kernels::SpmmRunOptions opt;
          opt.device = dev;
          opt.sample = sample;
          // Runs `run` on a full problem and on an address-only one, each
          // from a reset address space.
          const auto both = [&](kernels::Layout layout, auto&& run) {
            reset_device_address_space();
            kernels::SpmmProblem full(a, n, layout);
            kernels::fill_random(full.B, 11);
            const auto on_full = run(full);
            reset_device_address_space();
            kernels::SpmmProblem addr(a, n, layout, address_only);
            const auto on_addr = run(addr);
            EXPECT_TRUE(addr.B.device().address_only());
            EXPECT_TRUE(addr.C.device().host().empty());
            return std::make_pair(on_full, on_addr);
          };
          for (const kernels::ReduceKind reduce :
               {kernels::ReduceKind::Sum, kernels::ReduceKind::Max}) {
            opt.reduce = reduce;
            for (const SpmmAlgo algo : semiring_algos) {
              SCOPED_TRACE(testing::Message()
                           << kernels::algo_name(algo) << " n=" << n << " " << dev.name
                           << " reduce=" << kernels::reduce_kind_name(reduce)
                           << " max_blocks=" << sample.max_blocks << " rows=" << a.rows);
              const auto [full, addr] = both(kernels::Layout::RowMajor,
                                             [&](kernels::SpmmProblem& p) {
                                               return kernels::run_spmm(algo, p, opt);
                                             });
              expect_bitwise_equal(full, addr);
            }
            SCOPED_TRACE(testing::Message()
                         << "hybrid n=" << n << " " << dev.name
                         << " reduce=" << kernels::reduce_kind_name(reduce)
                         << " max_blocks=" << sample.max_blocks << " rows=" << a.rows);
            const auto [full, addr] =
                both(kernels::Layout::RowMajor, [&](kernels::SpmmProblem& p) {
                  return kernels::run_spmm_hybrid_detailed(p, opt);
                });
            expect_bitwise_equal(full.total, addr.total);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(full.dense_ms),
                      std::bit_cast<std::uint64_t>(addr.dense_ms));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(full.ragged_ms),
                      std::bit_cast<std::uint64_t>(addr.ragged_ms));
            EXPECT_EQ(full.dense_rows, addr.dense_rows);
            saw_mma_rows = saw_mma_rows || full.dense_rows > 0;
          }
          opt.reduce = kernels::ReduceKind::Sum;
          for (const SpmmAlgo algo : sum_only_algos) {
            SCOPED_TRACE(testing::Message() << kernels::algo_name(algo) << " n=" << n << " "
                                            << dev.name << " max_blocks=" << sample.max_blocks
                                            << " rows=" << a.rows);
            const auto layout = algo == SpmmAlgo::Csrmm2 ? kernels::Layout::ColMajor
                                                         : kernels::Layout::RowMajor;
            const auto [full, addr] = both(layout, [&](kernels::SpmmProblem& p) {
              return kernels::run_spmm(algo, p, opt);
            });
            expect_bitwise_equal(full, addr);
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_empty_row);
  EXPECT_TRUE(saw_mma_rows);
}

}  // namespace
}  // namespace gespmm::gpusim
