/// Launch engine tests: metric collection, block sampling extrapolation,
/// determinism, cost-model sanity/monotonicity properties, pricing on
/// address-only operands, and digests that pin the simulated event stream.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "gpusim/gpusim.hpp"
#include "kernels/registry.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_problem.hpp"
#include "sparse/generators.hpp"
#include "sparse/sampling.hpp"

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

TEST(LaunchComposition, ShapeComesFromTheSlowestLaunchFirstOnTies) {
  EXPECT_EQ(compose({}).time.total_ms, 0.0);
  std::vector<LaunchResult> launches(3);
  const double totals[] = {1.0, 2.0, 2.0};
  const char* bottlenecks[] = {"dram", "l2", "issue"};
  for (std::size_t i = 0; i < launches.size(); ++i) {
    launches[i].time.total_ms = totals[i];
    launches[i].time.bottleneck = bottlenecks[i];
    launches[i].config.grid = static_cast<long long>(i) + 1;
    launches[i].metrics.warp_instructions = 10;
    launches[i].kernel_name = "k" + std::to_string(i);
  }
  const LaunchResult c = compose(launches);
  EXPECT_EQ(c.time.total_ms, 5.0);
  EXPECT_EQ(c.metrics.warp_instructions, 30u);
  EXPECT_STREQ(c.time.bottleneck, "l2");
  EXPECT_EQ(c.config.grid, 2);
  EXPECT_EQ(c.kernel_name, "k0");
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

/// 64-bit FNV-1a over a stream of words and text: a fingerprint of every
/// simulated result a test computes, in the order it computes them.
class EventDigest {
 public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    add(static_cast<std::uint64_t>(s.size()));
  }
  void add(const LaunchResult& r) {
    for (const std::uint64_t w : launch_bits(r)) add(w);
    add(std::string_view(r.time.bottleneck));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Empty rows (fewer nonzeros than rows), a skewed rmat, and a pruned DNN
/// whose dense rows send the hybrid kernel down its MMA partition.
std::vector<sparse::Csr> pricing_matrices() {
  return {
      sparse::uniform_random(160, 140, 120, 3),
      sparse::rmat(7, 6.0, 0.57, 0.19, 0.19, 5),
      sparse::pruned_dnn(96, 96, 16, 0.8, 7),
  };
}

/// A pricing run on an address-only problem (B and C without host storage)
/// reports exactly what the same run on real, randomly filled operands
/// reports: no simulated kernel branches on dense values, and the problem
/// reserves the same device ranges in the same order.
TEST(AddressOnlyPricing, BitwiseEqualToFullPayload) {
  using kernels::SpmmAlgo;
  using sparse::Csr;
  using sparse::index_t;
  const std::vector<Csr> matrices = pricing_matrices();
  const SpmmAlgo semiring_algos[] = {
      SpmmAlgo::Naive,   SpmmAlgo::Crc,        SpmmAlgo::CrcCwm2,    SpmmAlgo::CrcCwm4,
      SpmmAlgo::CrcCwm8, SpmmAlgo::RowSplitGB, SpmmAlgo::DglFallback};
  const SpmmAlgo sum_only_algos[] = {SpmmAlgo::Csrmm2, SpmmAlgo::Gunrock};
  bool saw_empty_row = false;
  bool saw_mma_rows = false;
  EventDigest digest;
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
              digest.add(addr);
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
            digest.add(addr.total);
            digest.add(addr.dense_ms);
            digest.add(addr.ragged_ms);
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
            digest.add(addr);
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_empty_row);
  EXPECT_TRUE(saw_mma_rows);
  // The simulated event stream, pinned: every counter, time term and
  // bottleneck above, in order. A changed value means the event stream
  // changed (an access, a count, their order or a cache state) or the way
  // a multi-launch result composes them. A change that does that
  // re-records BENCH_baseline.json where its rows move, says why, and only
  // then updates this constant.
  EXPECT_EQ(digest.value(), 0x9a570361f0b2af5bull);
}

/// A pricing run on one thread reports the same events whatever another
/// thread allocates while it builds its problem: the serving engine prices
/// cold plans on its workers while clients and other workers allocate
/// operands. The other thread's buffer lands between A and B, the window
/// in which a process-wide address space would shift B and C against A.
TEST(AddressOnlyPricing, OtherThreadsAllocationsDoNotMoveARun) {
  const sparse::Csr a = sparse::pruned_dnn(96, 96, 16, 0.8, 7);
  const sparse::index_t n = 100;
  kernels::SpmmRunOptions opt;
  opt.device = rtx2080();
  const auto run = [&](bool other_thread_allocates) {
    reset_device_address_space();
    kernels::SpmmProblem p;
    p.A = kernels::CsrDevice(a);
    if (other_thread_allocates) {
      std::thread([] { const kernels::DenseMatrix other(64, 64); }).join();
    }
    p.B = kernels::DenseMatrix(a.cols, n, kernels::Layout::RowMajor, address_only);
    p.C = kernels::DenseMatrix(a.rows, n, kernels::Layout::RowMajor, address_only);
    return kernels::run_spmm(kernels::SpmmAlgo::CrcCwm2, p, opt);
  };
  const LaunchResult alone = run(false);
  const LaunchResult interleaved = run(true);
  expect_bitwise_equal(alone, interleaved);
}

/// The pricing path the serving layer runs: `autotune_spmm` in Predict and
/// Exact mode over the matrices above and over one sampled GraphSAGE block
/// (the sampled-cold operand shape), each from a reset address space.
TEST(AddressOnlyPricing, AutotuneEventStreamPinned) {
  using sparse::index_t;
  struct Shape {
    sparse::Csr a;
    std::vector<index_t> widths;
  };
  std::vector<Shape> shapes;
  for (sparse::Csr& a : pricing_matrices()) {
    shapes.push_back({std::move(a), {1, 31, 32, 33, 64, 100}});
  }
  const sparse::Csr graph = sparse::rmat(12, 16.0, 0.57, 0.19, 0.19, 13);
  std::vector<index_t> seeds(256);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    seeds[s] = static_cast<index_t>(s * 13 % static_cast<std::size_t>(graph.rows));
  }
  shapes.push_back(
      {sparse::sample_neighbors(graph, seeds, {.fanout = 25, .seed = 17}).adj, {64, 256}});

  EventDigest digest;
  for (const Shape& s : shapes) {
    for (const index_t n : s.widths) {
      for (const DeviceSpec& dev : {gtx1080ti(), rtx2080()}) {
        for (const SelectionMode mode : {SelectionMode::Predict, SelectionMode::Exact}) {
          AutotuneOptions opt;
          opt.device = dev;
          opt.mode = mode;
          reset_device_address_space();
          const AutotuneResult r = autotune_spmm(s.a, n, opt);
          // Algorithms fold by name: an enumerator's value moves when
          // another enumerator is added or removed, its name does not.
          digest.add(std::string_view(kernels::algo_name(r.best)));
          for (const auto& [algo, ms] : r.times_ms) {
            digest.add(std::string_view(kernels::algo_name(algo)));
            digest.add(ms);
          }
          digest.add(r.build_ms);
        }
      }
    }
  }
  // Pinned like BitwiseEqualToFullPayload's digest: a changed value means
  // the event stream changed, and the change re-records BENCH_baseline.json
  // and says why.
  EXPECT_EQ(digest.value(), 0x39edc9449ad34c3eull);
}

/// The CRC family and the hybrid's ragged launch at widths above 256
/// columns, where CRC's 512-thread block cap and CWM's 256-thread cap give
/// different blocks. Each run's launch config is folded with its events,
/// since the block cap and the register count show there first.
TEST(AddressOnlyPricing, WideCrcFamilyPinned) {
  using kernels::SpmmAlgo;
  using sparse::index_t;
  const auto add_config = [](EventDigest& d, const LaunchConfig& c) {
    d.add(static_cast<std::uint64_t>(c.grid));
    d.add(static_cast<std::uint64_t>(c.block));
    d.add(static_cast<std::uint64_t>(c.smem_bytes));
    d.add(static_cast<std::uint64_t>(c.regs_per_thread));
    d.add(c.ilp);
  };
  EventDigest digest;
  int runs = 0;
  for (const sparse::Csr& a : pricing_matrices()) {
    for (const index_t n : {257, 300, 512}) {
      for (const DeviceSpec& dev : {gtx1080ti(), rtx2080()}) {
        for (const SamplePolicy sample : {SamplePolicy::full(), SamplePolicy::sampled(64)}) {
          for (const kernels::ReduceKind reduce :
               {kernels::ReduceKind::Sum, kernels::ReduceKind::Max}) {
            kernels::SpmmRunOptions opt;
            opt.device = dev;
            opt.sample = sample;
            opt.reduce = reduce;
            for (const SpmmAlgo algo : {SpmmAlgo::Crc, SpmmAlgo::CrcCwm2, SpmmAlgo::CrcCwm4,
                                        SpmmAlgo::CrcCwm8, SpmmAlgo::GeSpMM}) {
              reset_device_address_space();
              kernels::SpmmProblem p(a, n, kernels::Layout::RowMajor, address_only);
              const LaunchResult r = kernels::run_spmm(algo, p, opt);
              digest.add(r);
              add_config(digest, r.config);
              ++runs;
            }
            reset_device_address_space();
            kernels::SpmmProblem p(a, n, kernels::Layout::RowMajor, address_only);
            const kernels::HybridLaunchResult h = kernels::run_spmm_hybrid_detailed(p, opt);
            digest.add(h.total);
            add_config(digest, h.total.config);
            digest.add(h.dense_ms);
            digest.add(h.ragged_ms);
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 432);
  // Pinned like the digests above.
  EXPECT_EQ(digest.value(), 0xefc93023e70a7a15ull);
}

}  // namespace
}  // namespace gespmm::gpusim
