#pragma once
/// \file spmm_mergesplit.hpp
/// GraphBLAST's merge-based SpMM variant (the companion of `rowsplit` in
/// paper ref [2], "Design principles for sparse matrix multiplication on
/// the GPU"). Instead of assigning whole rows to warps — which starves or
/// overloads warps on power-law graphs — the nonzeros are split into
/// equal-size chunks and each warp processes one chunk, carrying partial
/// row sums across chunk boundaries with atomic combines.
///
/// This gives near-perfect load balance (its advantage on skewed
/// matrices) at the cost of atomics at row boundaries and no cross-chunk
/// sparse reuse (the weakness GE-SpMM's CWM addresses for the row-split
/// family). Including it makes the GraphBLAST baseline as strong as the
/// original library on the suite's heavy-tailed graphs.

#include "gpusim/gpusim.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

class SpmmMergeSplitKernel final : public gpusim::Kernel {
 public:
  static constexpr int kWarpsPerBlock = 4;
  static constexpr index_t kNnzPerWarp = 256;

  explicit SpmmMergeSplitKernel(SpmmProblem& p) : p_(&p) {
    // Host-side precomputed chunk -> first-row index (GraphBLAST builds
    // the same search structure per launch; cost is O(chunks) binary
    // searches fused into the kernel in the original — we charge it as
    // part of the kernel via the row-lookup loads below).
    const index_t nnz = p.A.nnz();
    const auto chunks = static_cast<std::size_t>((nnz + kNnzPerWarp - 1) / kNnzPerWarp);
    std::vector<index_t> first_row(chunks);
    index_t row = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const index_t start = static_cast<index_t>(c) * kNnzPerWarp;
      while (row + 1 < p.A.rows &&
             p.A.rowptr[static_cast<std::size_t>(row) + 1] <= start) {
        ++row;
      }
      first_row[c] = row;
    }
    chunk_first_row_ = gpusim::DeviceArray<index_t>(std::span<const index_t>(first_row));
  }

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    const long long chunks = chunk_first_row_.empty()
                                 ? 1
                                 : static_cast<long long>(chunk_first_row_.size());
    cfg.grid = (chunks + kWarpsPerBlock - 1) / kWarpsPerBlock;
    cfg.block = kWarpsPerBlock * gpusim::kWarpSize;
    cfg.regs_per_thread = 36;
    cfg.ilp = 0.9;  // carry-chain between row segments
    return cfg;
  }

  std::string name() const override { return "mergesplit(graphblast)"; }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    const long long n = p_->n();
    const index_t nnz = p_->A.nnz();
    // No per-lane folds for an address-only C (see SpmmCrcKernel).
    const bool values = !p_->C.device().address_only();
    if (nnz == 0) {
      zero_fill_rows(blk);
      return;
    }
    for (int w = 0; w < blk.num_warps(); ++w) {
      const long long chunk = blk.block_id() * kWarpsPerBlock + w;
      const index_t start = static_cast<index_t>(chunk) * kNnzPerWarp;
      if (start >= nnz) break;
      const index_t end = std::min<index_t>(start + kNnzPerWarp, nnz);
      WarpCtx warp = blk.warp(w);

      index_t row = warp.ld_broadcast(chunk_first_row_, chunk, kFullMask);
      index_t row_end = warp.ld_broadcast(p_->A.rowptr, row + 1, kFullMask);

      for (long long j0 = 0; j0 < n; j0 += kWarpSize) {
        const LaneMask mask = (n - j0) >= kWarpSize
                                  ? kFullMask
                                  : first_lanes(static_cast<int>(n - j0));
        index_t r = row;
        index_t re = row_end;
        Lanes<value_t> acc = splat(0.0f);
        bool acc_partial_head = true;  // first row of the chunk may be split

        for (index_t ptr = start; ptr < end; ptr += kWarpSize) {
          const int tile = std::min<index_t>(kWarpSize, end - ptr);
          const LaneMask load_mask = first_lanes(tile);
          const Lanes<index_t> kk = warp.ld_contig(p_->A.colind, ptr, load_mask);
          const Lanes<value_t> vv = warp.ld_contig(p_->A.val, ptr, load_mask);
          for (int t = 0; t < tile; ++t) {
            // Advance to the row owning element ptr + t.
            while (ptr + t >= re) {
              flush_row(warp, r, j0, acc, mask,
                        /*atomic=*/acc_partial_head);
              acc_partial_head = false;
              acc = splat(0.0f);
              ++r;
              re = warp.ld_broadcast(p_->A.rowptr, r + 1, mask);
            }
            const index_t k = warp.shfl(kk, t);
            const value_t v = warp.shfl(vv, t);
            const Lanes<value_t> b = warp.ld_contig(
                p_->B.device(), static_cast<std::int64_t>(k) * n + j0, mask);
            if (values) fold_lanes<SumReduce>(acc, v, b, mask);
            warp.count_fma(static_cast<std::uint64_t>(active_lanes(mask)));
            warp.count_inst(2);
          }
        }
        // Tail row: may continue in the next chunk -> atomic combine.
        const bool tail_partial = end < warp.ld_broadcast(p_->A.rowptr, r + 1, mask);
        flush_row(warp, r, j0, acc, mask, tail_partial || acc_partial_head);
      }
    }
  }

 private:
  /// Write a finished (or partial) row segment. Partial segments combine
  /// atomically because another warp owns the rest of the row.
  void flush_row(gpusim::WarpCtx& warp, index_t row, long long j0,
                 const gpusim::Lanes<value_t>& acc, gpusim::LaneMask mask,
                 bool atomic) const {
    using namespace gpusim;
    const long long n = p_->n();
    if (atomic) {
      Lanes<std::int64_t> idx{};
      for (int l = 0; l < kWarpSize; ++l) {
        idx[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(row) * n + j0 + l;
      }
      warp.atomic_add_gather(p_->C.device(), idx, acc, mask);
    } else {
      warp.st_contig(p_->C.device(), static_cast<std::int64_t>(row) * n + j0, acc, mask);
    }
  }

  /// Degenerate case: empty matrix still defines C = 0.
  void zero_fill_rows(gpusim::BlockCtx& blk) const {
    using namespace gpusim;
    if (blk.block_id() != 0) return;
    WarpCtx warp = blk.warp(0);
    const long long n = p_->n();
    for (index_t i = 0; i < p_->m(); ++i) {
      for (long long j0 = 0; j0 < n; j0 += kWarpSize) {
        const LaneMask mask = (n - j0) >= kWarpSize
                                  ? kFullMask
                                  : first_lanes(static_cast<int>(n - j0));
        warp.st_contig(p_->C.device(), static_cast<std::int64_t>(i) * n + j0,
                       splat(0.0f), mask);
      }
    }
  }

  SpmmProblem* p_;
  gpusim::DeviceArray<index_t> chunk_first_row_;
};

}  // namespace gespmm::kernels
