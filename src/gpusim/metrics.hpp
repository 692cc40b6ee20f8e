#pragma once
/// \file metrics.hpp
/// nvprof-style metric counters collected during a simulated kernel launch.
///
/// Metric definitions mirror the ones the paper reports:
///  - gld_transactions: number of 32-byte global *load* transactions.
///  - gld_efficiency:   unique bytes the program consumed divided by bytes
///                      actually moved by transactions (broadcast loads are
///                      counted once, so a warp-wide broadcast of a 4-byte
///                      word is 4/32 = 12.5% efficient).
///  - gld_throughput:   gld bytes divided by kernel time (computed by the
///                      cost model, so it can exceed DRAM bandwidth when L1
///                      or L2 serve part of the traffic, exactly as nvprof's
///                      number can).

#include <algorithm>
#include <cstdint>

namespace gespmm::gpusim {

struct LaunchMetrics {
  // Global loads.
  std::uint64_t gld_transactions = 0;
  std::uint64_t gld_useful_bytes = 0;
  std::uint64_t gld_instructions = 0;
  // Global stores.
  std::uint64_t gst_transactions = 0;
  std::uint64_t gst_useful_bytes = 0;
  std::uint64_t gst_instructions = 0;
  // Cache hierarchy (in transactions).
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram_transactions = 0;
  // Shared memory traffic in bytes.
  std::uint64_t smem_load_bytes = 0;
  std::uint64_t smem_store_bytes = 0;
  // Work counters.
  std::uint64_t flops = 0;
  std::uint64_t warp_instructions = 0;
  /// FLOPs issued through the dense-tile (MMA) pipe — every slot of every
  /// issued tile, padded or not, so zero-fill waste is visible here.
  std::uint64_t mma_flops = 0;
  /// Warp-level mma issues (one per tile).
  std::uint64_t mma_instructions = 0;
  /// Longest per-block global-load instruction chain observed — feeds the
  /// cost model's critical-path (load-imbalance) term. Merged with max().
  std::uint64_t max_block_gld_instructions = 0;
  // Launch shape (filled by the engine).
  std::uint64_t num_blocks = 0;
  std::uint64_t num_warps = 0;
  /// Extrapolation factor when only a subset of blocks was simulated.
  double sample_scale = 1.0;

  LaunchMetrics& operator+=(const LaunchMetrics& o) {
    gld_transactions += o.gld_transactions;
    gld_useful_bytes += o.gld_useful_bytes;
    gld_instructions += o.gld_instructions;
    gst_transactions += o.gst_transactions;
    gst_useful_bytes += o.gst_useful_bytes;
    gst_instructions += o.gst_instructions;
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    dram_transactions += o.dram_transactions;
    smem_load_bytes += o.smem_load_bytes;
    smem_store_bytes += o.smem_store_bytes;
    flops += o.flops;
    warp_instructions += o.warp_instructions;
    mma_flops += o.mma_flops;
    mma_instructions += o.mma_instructions;
    max_block_gld_instructions =
        std::max(max_block_gld_instructions, o.max_block_gld_instructions);
    return *this;
  }

  /// Scale all counters (used to extrapolate block sampling).
  void scale(double f) {
    auto s = [f](std::uint64_t& v) {
      v = static_cast<std::uint64_t>(static_cast<double>(v) * f + 0.5);
    };
    s(gld_transactions);
    s(gld_useful_bytes);
    s(gld_instructions);
    s(gst_transactions);
    s(gst_useful_bytes);
    s(gst_instructions);
    s(l1_hits);
    s(l2_hits);
    s(dram_transactions);
    s(smem_load_bytes);
    s(smem_store_bytes);
    s(flops);
    s(warp_instructions);
    s(mma_flops);
    s(mma_instructions);
  }

  std::uint64_t gld_bytes(int transaction_bytes = 32) const {
    return gld_transactions * static_cast<std::uint64_t>(transaction_bytes);
  }
  /// nvprof gld_efficiency in [0, 1].
  double gld_efficiency(int transaction_bytes = 32) const {
    const auto moved = gld_bytes(transaction_bytes);
    return moved == 0 ? 1.0
                      : static_cast<double>(gld_useful_bytes) / static_cast<double>(moved);
  }
  std::uint64_t dram_bytes(int transaction_bytes = 32) const {
    return dram_transactions * static_cast<std::uint64_t>(transaction_bytes);
  }
};

}  // namespace gespmm::gpusim
