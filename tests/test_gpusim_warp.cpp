/// WarpCtx / BlockCtx semantics: every load/store flavour must move the
/// right values AND account the right transactions through the cache
/// hierarchy; shared memory and atomics behave as documented.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "gpusim/gpusim.hpp"
#include "kernels/dense.hpp"

namespace gespmm::gpusim {
namespace {

/// Harness that runs a lambda as a one-block, one-warp kernel.
template <typename Fn>
LaunchResult run_warp(const DeviceSpec& dev, Fn&& fn, std::size_t smem_bytes = 0) {
  struct L final : Kernel {
    Fn* fn;
    std::size_t smem;
    LaunchConfig config(const DeviceSpec&) const override {
      LaunchConfig cfg;
      cfg.grid = 1;
      cfg.block = 32;
      cfg.smem_bytes = smem;
      return cfg;
    }
    std::string name() const override { return "lambda"; }
    void run_block(BlockCtx& blk) const override { (*fn)(blk); }
  } kernel;
  kernel.fn = &fn;
  kernel.smem = smem_bytes;
  return launch(dev, kernel);
}

class WarpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_device_address_space();
    in = DeviceArray<float>(1024);
    out = DeviceArray<float>(1024, 0.0f);
    idx = DeviceArray<std::int32_t>(1024);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<float>(i) * 0.5f;
      idx[i] = static_cast<std::int32_t>((i * 37) % 1024);
    }
  }
  DeviceArray<float> in, out;
  DeviceArray<std::int32_t> idx;
};

TEST_F(WarpFixture, ContiguousLoadMovesValuesAndCounts4Transactions) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    const auto v = w.ld_contig(in, 64, kFullMask);
    for (int l = 0; l < kWarpSize; ++l) {
      EXPECT_FLOAT_EQ(v[static_cast<std::size_t>(l)], (64.0f + l) * 0.5f);
    }
  });
  EXPECT_EQ(r.metrics.gld_transactions, 4u);
  EXPECT_EQ(r.metrics.gld_useful_bytes, 128u);
  EXPECT_EQ(r.metrics.gld_instructions, 1u);
}

TEST_F(WarpFixture, BroadcastLoadIsOneTransaction) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    const float v = w.ld_broadcast(in, 100, kFullMask);
    EXPECT_FLOAT_EQ(v, 50.0f);
  });
  EXPECT_EQ(r.metrics.gld_transactions, 1u);
  EXPECT_EQ(r.metrics.gld_useful_bytes, 4u);
  EXPECT_LT(r.metrics.gld_efficiency(), 0.2);
}

TEST_F(WarpFixture, GatherLoadMovesCorrectValues) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    Lanes<std::int64_t> indices{};
    for (int l = 0; l < kWarpSize; ++l) {
      indices[static_cast<std::size_t>(l)] = (l * 37) % 1024;
    }
    const auto v = w.ld_gather(in, indices, kFullMask);
    for (int l = 0; l < kWarpSize; ++l) {
      EXPECT_FLOAT_EQ(v[static_cast<std::size_t>(l)],
                      static_cast<float>((l * 37) % 1024) * 0.5f);
    }
  });
  // Stride-37 floats: each lane its own segment.
  EXPECT_EQ(r.metrics.gld_transactions, 32u);
}

TEST_F(WarpFixture, StoreWritesThroughAndCountsDram) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    w.st_contig(out, 0, splat(3.5f), kFullMask);
  });
  for (int l = 0; l < kWarpSize; ++l) EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(l)], 3.5f);
  EXPECT_EQ(r.metrics.gst_transactions, 4u);
  EXPECT_GE(r.metrics.dram_transactions, 4u);  // write-through
}

TEST_F(WarpFixture, ScatterStoreWithMask) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    Lanes<std::int64_t> indices{};
    Lanes<float> vals{};
    for (int l = 0; l < kWarpSize; ++l) {
      indices[static_cast<std::size_t>(l)] = l * 8;
      vals[static_cast<std::size_t>(l)] = static_cast<float>(l);
    }
    w.st_gather(out, indices, vals, first_lanes(5));
  });
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[8], 1.0f);
  EXPECT_FLOAT_EQ(out[32], 4.0f);
  EXPECT_FLOAT_EQ(out[40], 0.0f);  // lane 5 masked off
  EXPECT_EQ(r.metrics.gst_useful_bytes, 5u * 4);
}

TEST_F(WarpFixture, AtomicAddAccumulatesAndCountsConflicts) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    Lanes<std::int64_t> indices{};
    Lanes<float> vals{};
    for (int l = 0; l < kWarpSize; ++l) {
      indices[static_cast<std::size_t>(l)] = l % 4;  // 8-way conflicts
      vals[static_cast<std::size_t>(l)] = 1.0f;
    }
    w.atomic_add_gather(out, indices, vals, kFullMask);
  });
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], 8.0f);
  // Atomics are a load + a store instruction plus replay work.
  EXPECT_GE(r.metrics.gld_instructions, 1u);
  EXPECT_GE(r.metrics.gst_instructions, 1u);
  EXPECT_GT(r.metrics.warp_instructions, 2u);
}

TEST_F(WarpFixture, SharedMemoryAllocAndAccounting) {
  const auto r = run_warp(
      gtx1080ti(),
      [&](BlockCtx& blk) {
        auto sm = blk.smem_alloc<float>(64);
        WarpCtx w = blk.warp(0);
        sm[3] = 7.0f;
        w.smem_store(4);
        EXPECT_FLOAT_EQ(sm[3], 7.0f);
        w.smem_load(4);
        // A second allocation must not overlap the first.
        auto sm2 = blk.smem_alloc<std::int32_t>(16);
        EXPECT_NE(static_cast<void*>(sm.data()), static_cast<void*>(sm2.data()));
      },
      /*smem_bytes=*/64 * sizeof(float) + 16 * sizeof(std::int32_t));
  EXPECT_EQ(r.metrics.smem_store_bytes, 4u);
  EXPECT_EQ(r.metrics.smem_load_bytes, 4u);
}

TEST_F(WarpFixture, ShuffleBroadcastsLaneValue) {
  run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    Lanes<float> v{};
    for (int l = 0; l < kWarpSize; ++l) v[static_cast<std::size_t>(l)] = static_cast<float>(l * l);
    EXPECT_FLOAT_EQ(w.shfl(v, 5), 25.0f);
    EXPECT_FLOAT_EQ(w.shfl(v, 31), 961.0f);
  });
}

TEST_F(WarpFixture, L2CachesRepeatedBroadcastsOnPascal) {
  const auto r = run_warp(gtx1080ti(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    for (int rep = 0; rep < 8; ++rep) w.ld_broadcast(in, 200, kFullMask);
  });
  EXPECT_EQ(r.metrics.gld_transactions, 8u);
  EXPECT_EQ(r.metrics.l1_hits, 0u);   // Pascal: no L1 for globals
  EXPECT_EQ(r.metrics.l2_hits, 7u);   // first access misses, rest hit
  EXPECT_EQ(r.metrics.dram_transactions, 1u);
}

TEST_F(WarpFixture, L1CachesRepeatedBroadcastsOnTuring) {
  const auto r = run_warp(rtx2080(), [&](BlockCtx& blk) {
    WarpCtx w = blk.warp(0);
    for (int rep = 0; rep < 8; ++rep) w.ld_broadcast(in, 200, kFullMask);
  });
  EXPECT_EQ(r.metrics.l1_hits, 7u);
  EXPECT_EQ(r.metrics.dram_transactions, 1u);
}

TEST_F(WarpFixture, DeterministicVirtualAddresses) {
  reset_device_address_space();
  DeviceArray<float> a(100);
  DeviceArray<float> b(100);
  const auto addr_a = a.base_addr();
  const auto addr_b = b.base_addr();
  reset_device_address_space();
  DeviceArray<float> a2(100);
  DeviceArray<float> b2(100);
  EXPECT_EQ(a2.base_addr(), addr_a);
  EXPECT_EQ(b2.base_addr(), addr_b);
  EXPECT_EQ(addr_a % 256, 0u);
  EXPECT_NE(addr_a, addr_b);
}

TEST_F(WarpFixture, CopiedArrayGetsFreshAddressRange) {
  DeviceArray<float> a(100, 1.0f);
  DeviceArray<float> b = a;  // copy
  EXPECT_NE(a.base_addr(), b.base_addr());
  EXPECT_FLOAT_EQ(b[50], 1.0f);
  b[50] = 2.0f;
  EXPECT_FLOAT_EQ(a[50], 1.0f);  // deep copy
}

TEST_F(WarpFixture, ResizeGrowthRelocatesVirtually) {
  DeviceArray<float> a(64);
  const auto before = a.base_addr();
  a.resize(32);  // shrink: address stable
  EXPECT_EQ(a.base_addr(), before);
  a.resize(4096);  // growth: must not overlap later allocations
  EXPECT_NE(a.base_addr(), before);
}

/// Every global load/store flavour on an address-only array counts exactly
/// what it counts on a real array of the same size, loads return zeros and
/// stores leave no host bytes behind.
TEST_F(WarpFixture, AddressOnlyArrayCountsTheSameAndMovesNoValues) {
  DeviceArray<float> addr(in.size(), address_only);
  ASSERT_TRUE(addr.address_only());
  ASSERT_EQ(addr.size(), in.size());
  ASSERT_EQ(addr.base_addr() % 256, 0u);
  Lanes<std::int64_t> indices{};
  for (int l = 0; l < kWarpSize; ++l) indices[static_cast<std::size_t>(l)] = (l * 37) % 1024;
  const auto ops = [&](DeviceArray<float>& a, bool zeros) {
    return run_warp(rtx2080(), [&](BlockCtx& blk) {
      WarpCtx w = blk.warp(0);
      const auto c = w.ld_contig(a, 64, kFullMask);
      const float b = w.ld_broadcast(a, 100, kFullMask);
      const auto g = w.ld_gather(a, indices, kFullMask);
      w.st_contig(a, 0, splat(3.5f), kFullMask);
      w.st_gather(a, indices, splat(1.5f), first_lanes(5));
      w.atomic_add_gather(a, indices, splat(1.0f), kFullMask);
      if (zeros) {
        EXPECT_EQ(b, 0.0f);
        for (int l = 0; l < kWarpSize; ++l) {
          EXPECT_EQ(c[static_cast<std::size_t>(l)], 0.0f);
          EXPECT_EQ(g[static_cast<std::size_t>(l)], 0.0f);
        }
      }
    });
  };
  const auto real = ops(in, /*zeros=*/false);
  const auto none = ops(addr, /*zeros=*/true);
  EXPECT_TRUE(addr.host().empty());
  EXPECT_EQ(addr.size(), in.size());
  EXPECT_EQ(none.metrics.gld_transactions, real.metrics.gld_transactions);
  EXPECT_EQ(none.metrics.gld_useful_bytes, real.metrics.gld_useful_bytes);
  EXPECT_EQ(none.metrics.gst_transactions, real.metrics.gst_transactions);
  EXPECT_EQ(none.metrics.gst_useful_bytes, real.metrics.gst_useful_bytes);
  EXPECT_EQ(none.metrics.l1_hits, real.metrics.l1_hits);
  EXPECT_EQ(none.metrics.dram_transactions, real.metrics.dram_transactions);
  EXPECT_EQ(none.metrics.warp_instructions, real.metrics.warp_instructions);
  EXPECT_EQ(none.metrics.flops, real.metrics.flops);
}

/// Address-only is its own state: a moved-from array is empty and keeps
/// its range, but it is not address-only (so it never reads as zeros).
TEST_F(WarpFixture, MovedFromArrayIsNotAddressOnly) {
  DeviceArray<float> a(64, 1.0f);
  DeviceArray<float> b = std::move(a);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_FALSE(b.address_only());
  EXPECT_FALSE(a.address_only());  // NOLINT(bugprone-use-after-move)
  DeviceArray<float> c(64, address_only);
  DeviceArray<float> d = c;  // a copy is address-only with a fresh range
  EXPECT_TRUE(d.address_only());
  EXPECT_EQ(d.size(), 64u);
  EXPECT_NE(d.base_addr(), c.base_addr());
}

/// The storage allocator default-initializes, so the zero-filling
/// constructors must fill explicitly: they read back zeros even when the
/// heap hands back storage of the same size that was freed full of
/// non-zero bytes.
TEST_F(WarpFixture, ZeroFillingConstructorsReadZerosOnReusedStorage) {
  constexpr std::size_t n = 4096;
  const auto all_zero = [](std::span<const float> v, std::size_t from = 0) {
    for (std::size_t i = from; i < v.size(); ++i) {
      if (v[i] != 0.0f) return false;
    }
    return true;
  };
  const auto free_dirty_storage = [] { DeviceArray<float> junk(n, 7.0f); };
  for (int round = 0; round < 4; ++round) {
    free_dirty_storage();
    const DeviceArray<float> a(n);
    EXPECT_TRUE(all_zero(a.host()));
    free_dirty_storage();
    const kernels::DenseMatrix m(64, 64);  // 4096 elements
    EXPECT_TRUE(all_zero(m.device().host()));
    free_dirty_storage();
    DeviceArray<float> grown(16, 1.0f);
    grown.resize(n);
    EXPECT_EQ(grown[15], 1.0f);
    EXPECT_TRUE(all_zero(grown.host(), 16));
  }
}

/// In builds with assertions the unfilled constructor poisons its storage:
/// an element its caller fails to write reads NaN and breaks bitwise tests.
TEST_F(WarpFixture, UninitializedMatrixIsPoisonedInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "uninitialized buffers are only poisoned without NDEBUG";
#else
  const kernels::DenseMatrix m(33, 17, kernels::Layout::RowMajor, uninitialized);
  ASSERT_EQ(m.size(), 33u * 17u);
  for (const float v : m.device().host()) ASSERT_TRUE(std::isnan(v));
#endif
}

}  // namespace
}  // namespace gespmm::gpusim
